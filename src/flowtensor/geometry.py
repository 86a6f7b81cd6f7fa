"""Charts, atlases and pointwise tensor transformation.

A manifold is described by a finite atlas of charts.  Each chart carries
three concentric coordinate balls around its centre with radii r, 2r and
3r.  The innermost ball (radius r) is the region a chart is considered
responsible for, the middle ball (radius 2r) triggers a chart change
when a trajectory leaves it, and the outer ball (radius 3r) bounds the
region on which the chart maps and transition maps are trusted.

Tensor components are plain numpy arrays of shape ``(dim,) * (r + s)``
for valence ``(r, s)`` (``r`` contravariant slots first, then ``s``
covariant slots).  A scalar has valence ``(0, 0)`` and a 0-d array.

``_slot_replace`` and ``_contract`` are the package's one contraction
kernel: :func:`transform_tensor` (a single point, the pull-back of the
finite-difference Lie oracle included), every transport contraction in
``tensor_calculus`` and ``kiw_verifier`` and the Jacobian updates of
the flow's scheme step call them.  ``_inverse`` is the one inverse of a
stack of Jacobians, closed form for n <= 2.  They work on batch-last
arrays, whose batch axes trail the component axes; a single point has
no batch axis.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

import numpy as np

__all__ = [
    "NoCoveringChart",
    "OutsideOverlap",
    "ShapeMismatch",
    "TensorValue",
    "Chart",
    "ChartAtlas",
    "transform_tensor",
    "locate_chart",
    "locate_chart_batch",
    "transition",
    "euclidean_atlas",
    "torus_atlas",
    "sphere_atlas",
]

#: sentinel radius for single-chart atlases that cover everything
UNBOUNDED = 1.0e18

#: coordinates larger than this are treated as numerical blow-up
R_MAX = 1.0e6


class NoCoveringChart(Exception):
    """No chart's inner ball contains the requested point."""


class OutsideOverlap(Exception):
    """A transition map was evaluated outside the common domain."""


class ShapeMismatch(Exception):
    """Component array shape does not match the declared valence."""


@dataclass(frozen=True)
class TensorValue:
    """Components of a tensor at a single point, in a fixed chart.

    valence ``(r, s)`` means ``r`` contravariant (upper) indices followed
    by ``s`` covariant (lower) indices in ``components``.
    """

    valence: Tuple[int, int]
    components: np.ndarray

    def __post_init__(self):
        comp = np.asarray(self.components, dtype=float)
        object.__setattr__(self, "components", comp)
        r, s = self.valence
        if r < 0 or s < 0:
            raise ShapeMismatch(f"negative valence {self.valence}")
        if comp.ndim != r + s:
            raise ShapeMismatch(
                f"valence {self.valence} needs {r + s} axes, got shape {comp.shape}"
            )
        if comp.ndim > 0 and len(set(comp.shape)) > 1:
            raise ShapeMismatch(f"component axes must share one dimension, got {comp.shape}")

    @property
    def dim(self) -> int:
        return self.components.shape[0] if self.components.ndim else 0


def _slot_replace(T: np.ndarray, M: np.ndarray, slot: int, nslots: int, n_extra: int = 0,
                  n_m_extra: int = 0, transpose: bool = False) -> np.ndarray:
    """Contract slot ``slot`` of the batch-last ``T`` with the matrix stack ``M``.

    ``T`` has shape ``(n,) * nslots`` followed by ``n_extra`` axes kept as
    they are and then the batch axes; ``M`` has shape ``(rows, cols)``
    followed by ``n_m_extra`` axes, which follow the extra axes in the
    result, and then the batch axes.  Both carry the same number of batch
    axes, which broadcast.  With ``transpose`` False the new index is the
    first matrix index (``out_i = M[i, l] T[l]``), with True it is the
    second (``out_j = T[l] M[l, j]``).  The sum over ``l`` is an
    elementwise multiply-add, so the batch axes are the inner loop.
    """
    # basic indexing only: T keeps the slot as a singleton, M gains singletons
    keep = (slice(None),) * (nslots - slot - 1 + n_extra)
    out = None
    for l in range(M.shape[0] if transpose else M.shape[1]):
        Tl = T[(slice(None),) * slot + (slice(l, l + 1),) + keep + (None,) * n_m_extra]
        Ml = M[(None,) * slot + ((l, slice(None)) if transpose else (slice(None), l))
               + (None,) * len(keep)]
        if out is None:
            out = Tl * Ml
        else:
            out += Tl * Ml
    return out


@np.errstate(divide="ignore", invalid="ignore")
def _inverse(A: np.ndarray) -> np.ndarray:
    """The matrix inverse of every matrix of the batch-last stack ``A``,
    shape ``(n, n) + batch``.

    For n = 1 and 2 it is the adjugate over the determinant, written entry
    by entry on the batch axes, so no axis is moved or copied.  Its
    relative error is at most about ``cond * eps`` per matrix (tested
    against ``np.linalg.inv`` to ``4 * cond * eps`` up to a condition
    number of 1e8).  For n of 3 or more it is ``np.linalg.inv``: a 3 x 3
    adjugate's determinant sums cofactors that each carry ``eps * |A|^2``
    of round-off, which can grow to ``cond^2 * eps`` relative.  For every
    n a singular matrix gives non-finite entries in its own column of the
    batch alone, where ``np.linalg.inv`` would raise for the whole stack.
    """
    if A.shape[0] > 2:
        # np.linalg.inv reads the matrices from the trailing axes of a view
        M = np.moveaxis(A, (0, 1), (-2, -1))
        try:
            inv = np.linalg.inv(M)
        except np.linalg.LinAlgError:  # one singular matrix: invert one matrix at a time
            inv = np.full(M.shape, np.nan)
            for k in np.ndindex(M.shape[:-2]):
                try:
                    inv[k] = np.linalg.inv(M[k])
                except np.linalg.LinAlgError:
                    pass
        return np.moveaxis(inv, (-2, -1), (0, 1))
    if A.shape[0] == 1:
        return 1.0 / A
    adj = np.empty(A.shape)
    adj[0, 0], adj[0, 1], adj[1, 0], adj[1, 1] = A[1, 1], -A[0, 1], -A[1, 0], A[0, 0]
    adj /= A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0]
    return adj


def _contract(comp, valence, contra_mat, cov_mat, mods=None):
    """Contract every slot of the batch-last ``comp``, one slot at a time.

    Contravariant slots contract with ``contra_mat`` (``out_i = M[i, l]
    T[l]``), covariant ones with ``cov_mat`` (``out_j = T[l] M[l, j]``);
    ``mods`` maps a slot index to a matrix stack used there instead.  All
    arrays are batch-last, as in :func:`_slot_replace`.
    """
    r, s = valence
    out = np.asarray(comp, dtype=float)
    for slot in range(r + s):
        default = contra_mat if slot < r else cov_mat
        mat = mods.get(slot, default) if mods else default
        out = _slot_replace(out, mat, slot, r + s, transpose=slot >= r)
    return out


def transform_tensor(value: TensorValue, jac: np.ndarray, inv_jac: np.ndarray) -> TensorValue:
    """Re-express ``value`` in new coordinates ``y = T(x)``.

    ``jac`` is ``dT/dx`` at the point, ``inv_jac`` its inverse.
    Contravariant slots contract with ``jac``, covariant slots with
    ``inv_jac``.
    """
    jac = np.asarray(jac, dtype=float)
    inv_jac = np.asarray(inv_jac, dtype=float)
    n = value.dim if value.components.ndim else jac.shape[0]
    if jac.shape != (n, n) or inv_jac.shape != (n, n):
        raise ShapeMismatch(
            f"jacobian shape {jac.shape}/{inv_jac.shape} incompatible with dim {n}"
        )
    return TensorValue(value.valence, _contract(value.components, value.valence, jac, inv_jac))


@dataclass(frozen=True)
class Chart:
    """A single coordinate chart.

    ``to_coords`` / ``from_coords`` map between abstract points (stored
    as numpy arrays, e.g. unit vectors in R^3 for the sphere) and chart
    coordinates.  Both accept ``(..., k)`` batches.  ``center`` is given
    in chart coordinates and ``radius`` is the inner radius r; the hop
    trigger and trust radii are fixed multiples 2r and 3r.
    """

    id: int
    dim: int
    center: np.ndarray
    radius: float
    to_coords: Callable[[np.ndarray], np.ndarray]
    from_coords: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self):
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float))

    @property
    def hop_radius(self) -> float:
        return 2.0 * self.radius

    @property
    def trust_radius(self) -> float:
        return 3.0 * self.radius

    def dist(self, coords: np.ndarray) -> np.ndarray:
        """Euclidean distance from the chart centre, batched."""
        return np.linalg.norm(np.asarray(coords, dtype=float) - self.center, axis=-1)


@dataclass(frozen=True)
class Transition:
    """Coordinate change between two overlapping charts."""

    apply: Callable[[np.ndarray], np.ndarray]
    jacobian: Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class ChartAtlas:
    name: str
    charts: Tuple[Chart, ...]
    transitions: Dict[Tuple[int, int], Transition] = field(default_factory=dict)

    @property
    def dim(self) -> int:
        return self.charts[0].dim

    def chart(self, chart_id: int) -> Chart:
        return self.charts[chart_id]

    def transition_between(self, frm: int, to: int) -> Transition:
        try:
            return self.transitions[(frm, to)]
        except KeyError:
            raise OutsideOverlap(
                f"atlas {self.name!r} has no transition {frm} -> {to}"
            ) from None


def locate_chart(atlas: ChartAtlas, coords: np.ndarray, current: int) -> int:
    """Return the id of the lowest-numbered chart whose inner ball holds the point.

    ``coords`` are coordinates in chart ``current``.  Raises
    :class:`NoCoveringChart` when the point escapes every inner ball.
    """
    ids = locate_chart_batch(atlas, np.asarray(coords, dtype=float)[None, :], current)
    if ids[0] < 0:
        raise NoCoveringChart(
            f"point {np.asarray(coords)} (chart {current}) not in any inner ball of {atlas.name!r}"
        )
    return int(ids[0])


def locate_chart_batch(atlas: ChartAtlas, coords: np.ndarray, current: int) -> np.ndarray:
    """Vectorised :func:`locate_chart`; returns -1 where no chart covers."""
    coords = np.asarray(coords, dtype=float)
    if len(atlas.charts) == 1:
        ch = atlas.charts[0]
        ok = ch.dist(coords) <= ch.radius
        return np.where(ok, 0, -1)
    points = atlas.chart(current).from_coords(coords)
    out = np.full(coords.shape[:-1], -1, dtype=int)
    for ch in atlas.charts:  # ordered by id, lowest wins
        u = ch.to_coords(points)
        hit = (out < 0) & np.isfinite(u).all(axis=-1) & (ch.dist(u) <= ch.radius)
        out[hit] = ch.id
    return out


def transition(atlas: ChartAtlas, frm: int, to: int, coords: np.ndarray) -> np.ndarray:
    """Map coordinates from chart ``frm`` to chart ``to``.

    The point must lie inside the trust ball (radius 3r) of both charts,
    otherwise :class:`OutsideOverlap` is raised.
    """
    coords = np.asarray(coords, dtype=float)
    if frm == to:
        return coords.copy()
    src = atlas.chart(frm)
    dst = atlas.chart(to)
    if np.any(src.dist(coords) > src.trust_radius):
        raise OutsideOverlap(f"coords outside trust ball of chart {frm}")
    out = atlas.transition_between(frm, to).apply(coords)
    if np.any(~np.isfinite(out)) or np.any(dst.dist(out) > dst.trust_radius):
        raise OutsideOverlap(f"image outside trust ball of chart {to}")
    return out


# ---------------------------------------------------------------------------
# concrete atlases
# ---------------------------------------------------------------------------


def euclidean_atlas(dim: int) -> ChartAtlas:
    """R^n with one global identity chart."""

    def ident(p):
        return np.asarray(p, dtype=float)

    chart = Chart(
        id=0,
        dim=dim,
        center=np.zeros(dim),
        radius=UNBOUNDED,
        to_coords=ident,
        from_coords=ident,
    )
    return ChartAtlas(name=f"euclidean{dim}", charts=(chart,))


def _wrap_centered(x: np.ndarray) -> np.ndarray:
    """Wrap into [-1/2, 1/2) componentwise."""
    return x - np.floor(x + 0.5)


def torus_atlas(dim: int = 2) -> ChartAtlas:
    """Flat torus (R/Z)^n covered by 2^n charts centred on the half-integer grid.

    Chart coordinates are the centred representative of ``p - center``,
    transitions are the corresponding shifts followed by re-centering,
    so every transition Jacobian is the identity.
    """
    centers = []
    for mask in range(2**dim):
        centers.append(np.array([0.5 * ((mask >> i) & 1) for i in range(dim)]))

    charts: List[Chart] = []
    for cid, c in enumerate(centers):

        def to_coords(p, c=c):
            return _wrap_centered(np.asarray(p, dtype=float) - c)

        def from_coords(u, c=c):
            return np.mod(np.asarray(u, dtype=float) + c, 1.0)

        charts.append(
            Chart(
                id=cid,
                dim=dim,
                center=np.zeros(dim),
                radius=0.36,
                to_coords=to_coords,
                from_coords=from_coords,
            )
        )

    transitions: Dict[Tuple[int, int], Transition] = {}
    eye = np.eye(dim)
    for a, ca in enumerate(centers):
        for b, cb in enumerate(centers):
            if a == b:
                continue
            shift = ca - cb

            def apply(u, shift=shift):
                return _wrap_centered(np.asarray(u, dtype=float) + shift)

            def jacobian(u, eye=eye):
                u = np.asarray(u, dtype=float)
                return np.broadcast_to(eye, u.shape[:-1] + eye.shape).copy()

            transitions[(a, b)] = Transition(apply=apply, jacobian=jacobian)

    return ChartAtlas(name=f"torus{dim}", charts=tuple(charts), transitions=transitions)


def _stereo_inversion(u: np.ndarray) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    rho = np.sum(u * u, axis=-1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        return u / rho


def _stereo_inversion_jac(u: np.ndarray) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    rho = np.sum(u * u, axis=-1)
    n = u.shape[-1]
    eye = np.eye(n)
    outer = u[..., :, None] * u[..., None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        return eye / rho[..., None, None] - 2.0 * outer / (rho**2)[..., None, None]


def sphere_atlas() -> ChartAtlas:
    """Unit round sphere with the two stereographic charts.

    Chart 0 projects from the south pole (coordinates centred on the
    north pole), chart 1 from the north pole.  The transition both ways
    is the inversion ``u -> u / |u|^2``.  Points are stored as unit
    vectors in R^3.
    """

    def north_to(p):
        p = np.asarray(p, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            return p[..., :2] / (1.0 + p[..., 2:3])

    def north_from(u):
        u = np.asarray(u, dtype=float)
        rho = np.sum(u * u, axis=-1, keepdims=True)
        return np.concatenate([2.0 * u, 1.0 - rho], axis=-1) / (1.0 + rho)

    def south_to(p):
        p = np.asarray(p, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            return p[..., :2] / (1.0 - p[..., 2:3])

    def south_from(v):
        v = np.asarray(v, dtype=float)
        rho = np.sum(v * v, axis=-1, keepdims=True)
        return np.concatenate([2.0 * v, rho - 1.0], axis=-1) / (1.0 + rho)

    charts = (
        Chart(0, 2, np.zeros(2), 1.5, north_to, north_from),
        Chart(1, 2, np.zeros(2), 1.5, south_to, south_from),
    )
    inv = Transition(apply=_stereo_inversion, jacobian=_stereo_inversion_jac)
    return ChartAtlas(
        name="sphere2",
        charts=charts,
        transitions={(0, 1): inv, (1, 0): inv},
    )
