"""Built-in tensor and vector fields.

Random fields for the property suites are drawn from fixed symbolic
templates whose coefficients are parameter symbols.  Each draw is a new
field that generates its evaluators on first use, but the program cache
(see :mod:`flowtensor.tensor_calculus`) keys a program by the template's
components and parameter names, not by the drawn values: while the cache
directory is writable, every draw after the first, in this process or a
later one, loads the template's programs and differentiates, CSE-s and
prints nothing.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from typing import Optional, Sequence, Tuple

import numpy as np
import sympy as sp

from .tensor_calculus import TensorFieldSpec, VectorFieldSpec, coord_symbols

__all__ = [
    "DEFAULT_SMOOTHNESS",
    "tensor_field",
    "vector_field",
    "linear_vector_field",
    "rotation_field_2d",
    "gbm_vector_field",
    "coordinate_one_form",
    "euclidean_metric",
    "random_tensor_field",
    "random_vector_field",
    "sphere_rotation_fields",
    "sphere_round_metric",
]

#: smoothness declared for fields that are actually analytic
DEFAULT_SMOOTHNESS = 8


def tensor_field(valence, dim, comps, smoothness_order=DEFAULT_SMOOTHNESS, params=None, name=""):
    """Single-chart field on R^n from sympy expressions (chart id 0)."""
    return TensorFieldSpec(valence, dim, {0: comps}, smoothness_order, params, name)


def vector_field(dim, comps, smoothness_order=DEFAULT_SMOOTHNESS, params=None, name="", time_c1=True):
    return VectorFieldSpec(dim, {0: comps}, smoothness_order, params, name, time_c1)


def linear_vector_field(matrix: np.ndarray, name: str = "linear") -> VectorFieldSpec:
    """X(x) = A x for a constant matrix A."""
    A = np.asarray(matrix, dtype=float)
    n = A.shape[0]
    xs = coord_symbols(n)
    comps = [sum(sp.Float(A[i, j]) * xs[j] for j in range(n)) for i in range(n)]
    return vector_field(n, comps, name=name)


def rotation_field_2d(rate: float = 1.0, name: str = "rot") -> VectorFieldSpec:
    x0, x1 = coord_symbols(2)
    w = sp.Symbol("w_rot", real=True)
    return vector_field(2, [-w * x1, w * x0], params={w: rate}, name=name)


def gbm_vector_field(sigma: float = 1.0, name: str = "gbm") -> VectorFieldSpec:
    """sigma * x on the line; flows to closed-form exponentials."""
    (x0,) = coord_symbols(1)
    s = sp.Symbol("sig_gbm", real=True)
    return vector_field(1, [s * x0], params={s: sigma}, name=name)


def coordinate_one_form(dim: int, index: int = 0, name: Optional[str] = None) -> TensorFieldSpec:
    comps = [sp.Integer(1) if i == index else sp.Integer(0) for i in range(dim)]
    return tensor_field((0, 1), dim, comps, name=name or f"dx{index}")


def euclidean_metric(dim: int) -> TensorFieldSpec:
    comps = [[sp.Integer(1) if i == j else sp.Integer(0) for j in range(dim)] for i in range(dim)]
    return tensor_field((0, 2), dim, comps, name="eucl_metric")


# ---------------------------------------------------------------------------
# random field templates
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _monomials(dim: int, degree: int) -> Tuple[sp.Expr, ...]:
    xs = coord_symbols(dim)
    out = []
    for alpha in product(range(degree + 1), repeat=dim):
        if sum(alpha) <= degree:
            out.append(sp.prod([xs[k] ** a for k, a in zip(range(dim), alpha)]))
    return tuple(out)


@lru_cache(maxsize=None)
def _wave_basis(dim: int, nfreq: int) -> Tuple[sp.Expr, ...]:
    xs = coord_symbols(dim)
    freqs = []
    for w in product(range(-1, 2), repeat=dim):
        if any(w) and (w[next(i for i in range(dim) if w[i])] > 0):
            freqs.append(w)
    freqs = freqs[:nfreq]
    out = []
    for w in freqs:
        phase = sum(int(wk) * xs[k] for k, wk in enumerate(w))
        out.append(sp.sin(phase))
        out.append(sp.cos(phase))
    return tuple(out)


@lru_cache(maxsize=None)
def _template(valence: Tuple[int, int], dim: int, degree: int, prefix: str, kind: str):
    """Component expressions with symbolic coefficients, plus the symbols."""
    basis = _monomials(dim, degree) if kind == "poly" else _wave_basis(dim, degree)
    shape = (dim,) * (valence[0] + valence[1])
    comps = np.empty(shape, dtype=object)
    syms = []
    counter = 0
    for idx in np.ndindex(shape) if shape else [()]:
        e = sp.Integer(0)
        for mono in basis:
            c = sp.Symbol(f"{prefix}{counter}", real=True)
            syms.append(c)
            counter += 1
            e += c * mono
        comps[idx] = e
    return comps, tuple(syms)


def random_tensor_field(
    valence: Tuple[int, int],
    dim: int,
    rng: np.random.Generator,
    degree: int = 2,
    kind: str = "poly",
    scale: float = 1.0,
    prefix: str = "kc",
    smoothness_order: int = DEFAULT_SMOOTHNESS,
    name: str = "randK",
) -> TensorFieldSpec:
    """Draw coefficients for the fixed template of the given shape and kind."""
    comps, syms = _template(valence, dim, degree, prefix, kind)
    vals = scale * rng.standard_normal(len(syms))
    params = dict(zip(syms, vals))
    return TensorFieldSpec(valence, dim, {0: comps}, smoothness_order, params, name=name)


def random_vector_field(
    dim: int,
    rng: np.random.Generator,
    degree: int = 2,
    kind: str = "poly",
    scale: float = 1.0,
    prefix: str = "xc",
    smoothness_order: int = DEFAULT_SMOOTHNESS,
    name: str = "randX",
) -> VectorFieldSpec:
    comps, syms = _template((1, 0), dim, degree, prefix, kind)
    vals = scale * rng.standard_normal(len(syms))
    params = dict(zip(syms, vals))
    return VectorFieldSpec(dim, {0: comps}, smoothness_order, params, name=name)


# ---------------------------------------------------------------------------
# sphere fields (two stereographic charts, ids 0 = north, 1 = south)
# ---------------------------------------------------------------------------


def sphere_rotation_fields(rates: Sequence[float] = (1.0, 1.0, 1.0)) -> Tuple[VectorFieldSpec, ...]:
    """Generators of rotations about the three coordinate axes.

    Components are polynomials in stereographic coordinates; they are
    checked against the embedding derivative in the test suite.
    """
    X, Y = coord_symbols(2)
    half = sp.Rational(1, 2)
    north = {
        "rx": [-X * Y, half * (X**2 - Y**2 - 1)],
        "ry": [half * (X**2 - Y**2 + 1), X * Y],
        "rz": [-Y, X],
    }
    south = {
        "rx": [X * Y, half * (-(X**2) + Y**2 + 1)],
        "ry": [half * (-(X**2) + Y**2 - 1), -X * Y],
        "rz": [-Y, X],
    }
    out = []
    for key, rate in zip(("rx", "ry", "rz"), rates):
        w = sp.Symbol(f"w_{key}", real=True)
        comps = {
            0: [w * e for e in north[key]],
            1: [w * e for e in south[key]],
        }
        out.append(
            VectorFieldSpec(2, comps, DEFAULT_SMOOTHNESS, params={w: rate}, name=f"sphere_{key}")
        )
    return tuple(out)


def sphere_round_metric() -> TensorFieldSpec:
    """Round metric of the unit sphere, conformal in both charts."""
    X, Y = coord_symbols(2)
    lam = 4 / (1 + X**2 + Y**2) ** 2
    comps = [[lam, sp.Integer(0)], [sp.Integer(0), lam]]
    return TensorFieldSpec(
        (0, 2), 2, {0: comps, 1: comps}, DEFAULT_SMOOTHNESS, name="round_metric"
    )
