"""Time grids, driving noise and discrete stochastic calculus.

Randomness is counter-based: every normal variate is addressed by
``(seed, path id, kind, component, refinement level, draw index)``
through a Philox generator, so any path can be rebuilt in isolation,
in any order and in any batch, bitwise identically.

Dyadic refinement keeps the already-sampled Brownian values on the
coarse grid points untouched and fills midpoints with Brownian-bridge
draws from a fresh per-level stream.  Finite-variation drivers are
re-evaluated from their closed-form recipes; martingale drivers built as
discrete stochastic integrals are re-accumulated on the fine grid (their
coarse-grid restriction is not preserved bitwise, only in the limit).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "GridMismatch",
    "TimeGrid",
    "RngStream",
    "sample_brownian",
    "FvSpec",
    "MartSpec",
    "DrivingPaths",
    "BRACKET_MODES",
    "build_driving_paths",
    "refine_dyadic",
    "ito_integral",
    "stratonovich_integral",
    "fv_integral",
    "covariation",
]


class GridMismatch(Exception):
    """Paths defined on different grids were combined."""


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid on [0, horizon] with ``steps`` intervals; the horizon is finite."""

    horizon: float
    steps: int

    def __post_init__(self):
        if self.steps < 1 or not 0 < self.horizon < np.inf:
            raise ValueError(f"bad grid: horizon={self.horizon}, steps={self.steps}")

    @property
    def h(self) -> float:
        return self.horizon / self.steps

    @property
    def npoints(self) -> int:
        return self.steps + 1

    def times(self) -> np.ndarray:
        return np.arange(self.npoints) * self.h

    def refine(self) -> "TimeGrid":
        return TimeGrid(self.horizon, 2 * self.steps)


_KIND_TAGS = {"bm": 1, "bm_mid": 2, "aux": 3}


def _philox() -> np.random.Generator:
    """A Philox generator for :meth:`RngStream.normals` to reset, stream by stream."""
    return np.random.Generator(np.random.Philox(key=0))


@dataclass(frozen=True)
class RngStream:
    """Addressable Gaussian stream for one sample path.

    ``seed`` and ``path_index`` are the two 64-bit words of the Philox
    key, so each must lie in ``[0, 2**64)``.
    """

    seed: int
    path_index: int

    def __post_init__(self):
        for what, word in (("seed", self.seed), ("path index", self.path_index)):
            if not 0 <= int(word) < 2**64:
                raise ValueError(f"stream {what} must lie in [0, 2**64), got {word}")

    def normals(self, kind: str, component: int, level: int, count: int,
                gen: Optional[np.random.Generator] = None) -> np.ndarray:
        """``count`` normals of the stream ``(kind, component, level)``.

        The bit generator of ``gen`` (one from :func:`_philox`, a new one
        when None) is reset to the stream's counter and key, so the draws
        are bitwise those of a freshly constructed Philox at that address.
        """
        if component < 0 or component >= 2**20 or level < 0 or level >= 2**20:
            raise ValueError(f"stream address out of range: {component}, {level}")
        tag = _KIND_TAGS[kind]
        stream_word = (tag << 40) | (component << 20) | level
        gen = gen if gen is not None else _philox()
        # plain ints: the setter copies them word by word into the bit
        # generator, so no arrays are built per stream
        gen.bit_generator.state = {
            "bit_generator": "Philox",
            "state": {"counter": (0, stream_word, 0, 0), "key": (self.seed, self.path_index)},
            "buffer": (0, 0, 0, 0),
            "buffer_pos": 4,  # empty: the next draw starts at the counter
            "has_uint32": 0,
            "uinteger": 0,
        }
        return gen.standard_normal(count)


def sample_brownian(grid: TimeGrid, dims: int, stream: RngStream,
                    gen: Optional[np.random.Generator] = None) -> np.ndarray:
    """One Brownian path on the grid, shape ``(npoints, dims)``, B_0 = 0."""
    dz = np.empty((grid.steps, dims))
    for j in range(dims):
        dz[:, j] = stream.normals("bm", j, 0, grid.steps, gen)
    out = np.zeros((grid.npoints, dims))
    np.cumsum(dz * np.sqrt(grid.h), axis=0, out=out[1:])
    return out


@dataclass(frozen=True)
class FvSpec:
    """Finite-variation driver given by a closed-form function of time."""

    name: str
    func: Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class MartSpec:
    """Martingale driver.

    ``kind`` is one of:

    - ``"bm"``: alias of Brownian component ``component`` (refinement
      preserves it bitwise),
    - ``"sigma_int"``: discrete integral of the deterministic function
      ``sigma`` against Brownian component ``component``;
      ``sigma_antideriv`` supplies the closed-form bracket with that
      component,
    - ``"zero"``: identically zero.
    """

    name: str
    kind: str
    component: int = 0
    sigma: Optional[Callable[[np.ndarray], np.ndarray]] = None
    sigma_antideriv: Optional[Callable[[np.ndarray], np.ndarray]] = None


# how :meth:`DrivingPaths.bracket_with_bm` takes the bracket [M^i, B^j]
BRACKET_MODES = ("closed_form", "realized")


@dataclass(frozen=True)
class DrivingPaths:
    """Sampled drivers for an ensemble of paths on one grid."""

    grid: TimeGrid
    seed: int
    level: int
    path_ids: np.ndarray  # (P,) global path indices
    bm: np.ndarray  # (P, npoints, n_noise)
    fv: np.ndarray  # (npoints, n_fv), deterministic
    mart: np.ndarray  # (P, npoints, n_mart)
    fv_specs: Tuple[FvSpec, ...] = ()
    mart_specs: Tuple[MartSpec, ...] = ()

    @property
    def n_paths(self) -> int:
        return self.bm.shape[0]

    @property
    def n_noise(self) -> int:
        return self.bm.shape[2]

    def times(self) -> np.ndarray:
        return self.grid.times()

    def slice_paths(self, start: int, stop: int) -> "DrivingPaths":
        return replace(
            self,
            path_ids=self.path_ids[start:stop],
            bm=self.bm[start:stop],
            mart=self.mart[start:stop],
        )

    def bracket_with_bm(self, mart_index: int, bm_component: int, mode: str = "closed_form") -> np.ndarray:
        """Quadratic covariation path [M^i, B^j], shape (P, npoints).

        ``closed_form`` uses the driver recipe (exact limit), ``realized``
        the discrete covariation of the sampled paths.
        """
        if mode not in BRACKET_MODES:
            raise ValueError(f"unknown bracket mode {mode!r}; choose from {BRACKET_MODES}")
        spec = self.mart_specs[mart_index]
        P = self.n_paths
        t = self.times()
        if mode == "realized":
            return covariation(self.mart[:, :, mart_index], self.bm[:, :, bm_component])
        if spec.kind == "zero" or spec.component != bm_component:
            return np.zeros((P, t.size))
        if spec.kind == "bm":
            return np.broadcast_to(t, (P, t.size))
        if spec.kind == "sigma_int":
            if spec.sigma_antideriv is None:
                raise ValueError(f"mart driver {spec.name!r} has no closed-form bracket")
            br = spec.sigma_antideriv(t) - spec.sigma_antideriv(t[:1])
            return np.broadcast_to(br, (P, t.size))
        raise ValueError(f"unknown mart kind {spec.kind!r}")


def _build_fv(grid: TimeGrid, fv_specs: Sequence[FvSpec]) -> np.ndarray:
    t = grid.times()
    out = np.zeros((grid.npoints, len(fv_specs)))
    for i, spec in enumerate(fv_specs):
        vals = np.broadcast_to(np.asarray(spec.func(t), dtype=float), t.shape)
        out[:, i] = vals - vals[0]
    return out


def _build_mart(grid: TimeGrid, bm: np.ndarray, mart_specs: Sequence[MartSpec]) -> np.ndarray:
    P = bm.shape[0]
    t = grid.times()
    out = np.zeros((P, grid.npoints, len(mart_specs)))
    for i, spec in enumerate(mart_specs):
        if spec.kind == "zero":
            continue
        if spec.kind == "bm":
            out[:, :, i] = bm[:, :, spec.component]
        elif spec.kind == "sigma_int":
            sig = np.broadcast_to(np.asarray(spec.sigma(t), dtype=float), t.shape)
            out[:, :, i] = ito_integral(sig[None, :], bm[:, :, spec.component])
        else:
            raise ValueError(f"unknown mart kind {spec.kind!r}")
    return out


def build_driving_paths(
    grid: TimeGrid,
    n_noise: int,
    seed: int,
    n_paths: int,
    fv_specs: Sequence[FvSpec] = (),
    mart_specs: Sequence[MartSpec] = (),
    path_ids: Optional[np.ndarray] = None,
) -> DrivingPaths:
    """Sample an ensemble of drivers at refinement level 0."""
    if path_ids is None:
        path_ids = np.arange(n_paths)
    path_ids = np.asarray(path_ids, dtype=int)
    bm = np.empty((path_ids.size, grid.npoints, n_noise))
    gen = _philox()
    for p, pid in enumerate(path_ids):
        bm[p] = sample_brownian(grid, n_noise, RngStream(seed, int(pid)), gen)
    return DrivingPaths(
        grid=grid,
        seed=seed,
        level=0,
        path_ids=path_ids,
        bm=bm,
        fv=_build_fv(grid, fv_specs),
        mart=_build_mart(grid, bm, mart_specs),
        fv_specs=tuple(fv_specs),
        mart_specs=tuple(mart_specs),
    )


def refine_dyadic(paths: DrivingPaths) -> DrivingPaths:
    """Halve the step, keeping coarse Brownian samples bitwise intact.

    Midpoints are Brownian-bridge samples with mean the average of the
    bracketing coarse values and standard deviation ``sqrt(h/4)``; the
    bridge normals come from a dedicated stream indexed by the new level,
    so refining commutes with slicing the ensemble.
    """
    grid = paths.grid
    fine = grid.refine()
    level = paths.level + 1
    P, _, N = paths.bm.shape
    sd = np.sqrt(grid.h / 4.0)
    bm_f = np.empty((P, fine.npoints, N))
    bm_f[:, 0::2, :] = paths.bm
    mids = 0.5 * (paths.bm[:, :-1, :] + paths.bm[:, 1:, :])
    gen = _philox()
    for p, pid in enumerate(paths.path_ids):
        stream = RngStream(paths.seed, int(pid))
        for j in range(N):
            z = stream.normals("bm_mid", j, level, grid.steps, gen)
            bm_f[p, 1::2, j] = mids[p, :, j] + sd * z
    return DrivingPaths(
        grid=fine,
        seed=paths.seed,
        level=level,
        path_ids=paths.path_ids,
        bm=bm_f,
        fv=_build_fv(fine, paths.fv_specs),
        mart=_build_mart(fine, bm_f, paths.mart_specs),
        fv_specs=paths.fv_specs,
        mart_specs=paths.mart_specs,
    )


# ---------------------------------------------------------------------------
# discrete calculus
# ---------------------------------------------------------------------------


def _check_and_expand(integrand: np.ndarray, integrator: np.ndarray, axis: int):
    """Both paths as float arrays, and the time axis counted from the end."""
    f = np.asarray(integrand, dtype=float)
    X = np.asarray(integrator, dtype=float)
    axis = axis % f.ndim - f.ndim
    if X.ndim < -axis or X.shape[axis] != f.shape[axis]:
        raise GridMismatch(f"integrator of shape {X.shape} does not align with the "
                           f"{f.shape[axis]} grid points on axis {axis} of the integrand")
    return f, X, axis


def _sl(ndim: int, axis: int, s: slice) -> tuple:
    idx = [slice(None)] * ndim
    idx[axis] = s
    return tuple(idx)


def _cumsum_from_zero(steps: np.ndarray, axis: int) -> np.ndarray:
    out_shape = list(steps.shape)
    out_shape[axis] += 1
    out = np.zeros(out_shape)
    np.cumsum(steps, axis=axis, out=out[_sl(steps.ndim, axis, slice(1, None))])
    return out


def ito_integral(integrand: np.ndarray, integrator: np.ndarray, axis: int = -1) -> np.ndarray:
    """Left-point (Ito) sums, cumulative along the grid.

    Only integrand values strictly left of each increment enter the sum,
    so the last grid value of the integrand is never read.  The integrator
    broadcasts against the integrand as numpy aligns shapes, from the
    right, so ``axis`` counts from the end on both: a ``comps + (npoints,
    P)`` integrand at ``axis=-2`` takes an ``(npoints, P)`` or ``(npoints,
    1)`` integrator, a ``(P, npoints)`` integrand at ``axis=-1`` a ``(P,
    npoints)`` one.  An integrator with fewer axes, or another length on
    the time axis, raises :class:`GridMismatch`.
    """
    f, X, axis = _check_and_expand(integrand, integrator, axis)
    left = f[_sl(f.ndim, axis, slice(None, -1))]
    dX = np.diff(X, axis=axis)
    return _cumsum_from_zero(left * dX, axis)


def stratonovich_integral(integrand: np.ndarray, integrator: np.ndarray, axis: int = -1) -> np.ndarray:
    """Midpoint (trapezoid in the integrand) sums, cumulative along the grid,
    aligned as in :func:`ito_integral`."""
    f, X, axis = _check_and_expand(integrand, integrator, axis)
    left = f[_sl(f.ndim, axis, slice(None, -1))]
    right = f[_sl(f.ndim, axis, slice(1, None))]
    dX = np.diff(X, axis=axis)
    return _cumsum_from_zero(0.5 * (left + right) * dX, axis)


def fv_integral(integrand: np.ndarray, integrator: np.ndarray, axis: int = -1) -> np.ndarray:
    """Pathwise integral against a finite-variation driver (left sums),
    aligned as in :func:`ito_integral`."""
    return ito_integral(integrand, integrator, axis)


def covariation(x: np.ndarray, y: np.ndarray, axis: int = -1) -> np.ndarray:
    """Discrete quadratic covariation ``sum dX dY``, cumulative; ``y``
    aligns with ``x`` as the integrator of :func:`ito_integral` does."""
    x, y, axis = _check_and_expand(x, y, axis)
    steps = np.diff(x, axis=axis) * np.diff(y, axis=axis)
    return _cumsum_from_zero(steps, axis)
