"""Tensor fields on charts, Lie derivatives and flow transport contractions.

Fields are stored as sympy expressions per chart in the time symbol
``t`` and coordinate symbols ``x0, x1, ...``; evaluation generates one
numpy program per field, chart and jet order (held by the field), which
returns the full stacks ``D^0 .. D^order`` row by row, and then works on
numpy batches: :func:`_fill` writes a program's rows into one buffer,
for the field jets as for the flow's coefficient and step programs.
Free symbols other than time and coordinates are field parameters and
must be bound to floats in ``params``; parameter values enter only at
call time, so they are not part of a program.

Generated programs are kept in the program cache, one file each in
``$XDG_CACHE_HOME/flowtensor`` (``~/.cache/flowtensor`` by default):
:func:`_program` loads a program stored there by an earlier process
instead of differentiating, CSE-ing and printing it again.  An entry's
name is a sha256 over the code-generation tag (the sources of this
module and :mod:`flowtensor.flow`, and the sympy, numpy and Python
versions), the kind of program, its chart and orders, the ``srepr`` of
every component it reads and the parameter names in order.

Every field declares a ``smoothness_order``: the largest total spatial
derivative order callers may request.  Asking beyond it raises
:class:`InsufficientSmoothness`, which is how verification scenarios
with deliberately capped regularity fail fast instead of silently using
derivatives the hypotheses do not grant.

Fields evaluate through one method, :meth:`TensorFieldSpec._jet_last`,
on batch-last points: the coordinate axis first, then any batch axes,
or none for a single point (:meth:`TensorFieldSpec.eval`).  Every slot
contraction (the oracle's pull-back through :func:`transform_tensor`,
the slot terms of the Lie formula, :func:`_add_slot_terms`) runs one
kernel, ``_slot_replace`` and ``_contract`` from
:mod:`flowtensor.geometry`, on batch-last arrays: the component and
derivative axes come first, the batch axes trail (any number of them,
equal in number on every operand, singletons broadcast).  A contraction
is then an n-term elementwise multiply-add over the contracted index,
with the batch axis as the inner loop.  The verifier's integrand chains
stay batch-last from end to end, from the analytic jets to the
transported terms.  Every selector reads the same jets: the
pull-back route at the flow states, and the push-forward and restart
routes at the transported point, with the flow coefficients pulled back
through the exact jets of the discrete flow map.
"""

from __future__ import annotations

import builtins
import hashlib
import os
import sys
from contextlib import suppress
from functools import lru_cache
from itertools import combinations_with_replacement, product
from math import prod
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np
import sympy as sp
from sympy.printing.numpy import NumPyPrinter
from sympy.utilities.lambdify import _EvaluatorPrinter

from .geometry import ShapeMismatch, TensorValue, _slot_replace, transform_tensor

__all__ = [
    "InsufficientSmoothness",
    "ValenceMismatch",
    "TIME",
    "coord_symbols",
    "TensorFieldSpec",
    "VectorFieldSpec",
    "lie_derivative",
    "lie_derivative_fd_oracle",
]


class InsufficientSmoothness(Exception):
    """A derivative beyond the declared smoothness order was requested."""


class ValenceMismatch(Exception):
    """Tensor valences are incompatible for the requested operation."""


TIME = sp.Symbol("t", real=True)


@lru_cache(maxsize=None)
def coord_symbols(dim: int) -> Tuple[sp.Symbol, ...]:
    return sp.symbols(f"x0:{dim}", real=True)


class _Printer(NumPyPrinter):
    """lambdify's numpy printer, but a ``Float`` prints at round-trip precision
    (``repr``), not with sympy's 15 significant digits."""

    def _print_Float(self, expr):
        return repr(float(expr))


def _compiled(exprs: Tuple[sp.Expr, ...], args: Tuple[sp.Symbol, ...], blocks: tuple = ()) -> str:
    """The source of a numpy function of ``args`` returning the list of ``exprs``.

    The source is printed as ``sp.lambdify(args, list(exprs), modules=np)``
    prints it, except that floats print at round-trip precision
    (:class:`_Printer`), and :func:`_load` runs it in lambdify's namespace,
    so the function is the one lambdify would build but for its floats.  ``blocks``
    bind symbols before the outputs are computed.  Each block is a tuple of
    ``(symbol, expr)`` pairs, and one ``sp.cse`` over its right-hand
    sides shares their common subexpressions.  A block may read the
    symbols of earlier blocks, and the outputs may read any of them; the
    outputs themselves are printed as given.  Callers pass what they
    print to :func:`_program`, which calls it on a cache miss only.
    """
    taken = {s.name for s in args} | {s.name for blk in blocks for s, _ in blk}
    names = (s for s in sp.numbered_symbols("_s") if s.name not in taken)
    prelude = []
    for blk in blocks:
        syms, rhs = zip(*blk)
        repl, reduced = sp.cse(list(rhs), symbols=names)
        prelude += repl + list(zip(syms, reduced))
    printer = _Printer({"fully_qualified_modules": False, "inline": True,
                        "allow_unknown_functions": True, "user_functions": {}})
    return _EvaluatorPrinter(printer).doprint(_FUNCNAME, args, list(exprs), cses=prelude)


_FUNCNAME = "_lambdifygenerated"
_HEADER = "# flowtensor program sha256="


def _entry(name: str, source: str) -> str:
    """The program-cache entry ``name`` holding ``source``: a header line with the
    sha256 of the name and the source, then the source."""
    digest = hashlib.sha256((name + "\n" + source).encode()).hexdigest()
    return f"{_HEADER}{digest}\n{source}"


def _load(name: str, entry: str):
    """The function of the program-cache entry ``name``.

    An entry whose header does not match its name and source (a
    truncated or empty entry, other code, another program's entry) raises
    ``ValueError`` instead of loading.  The source runs in the namespace
    lambdify gives ``modules=np``: the numpy module's own namespace (not
    the star-import of the name ``"numpy"``, which imports
    ``numpy.f2py`` among others), ``builtins`` and ``range``.  Hits and
    misses of :func:`_program` both load through here.
    """
    source = entry.partition("\n")[2]
    if entry != _entry(name, source):
        raise ValueError(f"{name or 'program'}: not a whole program-cache entry")
    local: dict = {}
    exec(compile(source, "<flowtensor program>", "exec"),
         {**vars(np), "builtins": builtins, "range": range}, local)
    return local[_FUNCNAME]


@lru_cache(maxsize=None)
def _codegen_tag() -> Optional[str]:
    """sha256 of what generates the programs besides their key; None without the sources."""
    here = Path(__file__)
    try:
        sources = [here.read_bytes(), here.with_name("flow.py").read_bytes()]
    except OSError:
        return None
    tag = hashlib.sha256(b"".join(sources))
    tag.update(f"sympy {sp.__version__} numpy {np.__version__} python {sys.version}".encode())
    return tag.hexdigest()


def _cache_dir() -> Path:
    """``$XDG_CACHE_HOME/flowtensor``, or ``~/.cache/flowtensor`` when that is unset or relative."""
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):
        base = os.path.join(os.path.expanduser("~"), ".cache")
    return Path(base, "flowtensor")


def _program(key: tuple, source: Callable[[], str]):
    """The function of the generated program that ``key`` names, through the program cache.

    ``key`` holds, as strings and integers, everything besides the
    code-generation tag that the printed source depends on; ``source``
    prints it (:func:`_compiled`).  A hit loads the stored entry.  A miss
    prints the source, stores it and loads it; an entry that cannot be
    read or loaded is a miss, and one that cannot be written is skipped,
    so the cache never raises.  Without the sources the code-generation
    tag hashes, nothing is cached.
    """
    tag = _codegen_tag()
    if tag is None:
        return _load("", _entry("", source()))
    name = hashlib.sha256(repr((tag,) + key).encode()).hexdigest()
    path = _cache_dir() / f"{name}.py"
    with suppress(OSError, ValueError, SyntaxError, KeyError):
        return _load(name, path.read_text(encoding="utf-8"))
    entry = _entry(name, source())
    _store(path, entry)
    return _load(name, entry)


def _store(path: Path, entry: str):
    """Write ``entry`` to ``path`` whole or not at all; nothing is raised.

    The directory is made with mode ``0o700``, the entry is written to a
    temporary file beside ``path`` and renamed into place.
    """
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        path.parent.mkdir(mode=0o700, parents=True, exist_ok=True)
        tmp.write_text(entry, encoding="utf-8")
        os.replace(tmp, path)
    except OSError:
        with suppress(OSError):
            tmp.unlink()


def _fill(rows: Sequence, batch: Tuple[int, ...], out: Optional[np.ndarray] = None) -> np.ndarray:
    """The rows a generated program returns, written into ``out`` or, by
    default, one new ``(len(rows),) + batch`` array, which is returned.

    Row ``i`` is ``rows[i]`` broadcast to ``batch``; a program returns a
    constant entry as a 0-d value, which fills its row.  ``out`` may be
    the buffer of the program's arguments: the program computes every row
    before the first is written, so only a row that returns another
    row's argument unchanged would read a written row.
    """
    if out is None:
        out = np.empty((len(rows),) + batch)
    for i, v in enumerate(rows):
        out[i] = v
    return out


def _srepr(arr: np.ndarray) -> Tuple[str, ...]:
    """``sp.srepr`` of every entry of an object array, in C order (a program's cache key)."""
    return tuple(sp.srepr(e) for e in arr.flat)


@lru_cache(maxsize=None)
def _partial(e: sp.Expr, alpha: Tuple[int, ...]) -> sp.Expr:
    """``d^alpha e``: one ``sp.diff`` per coordinate, in coordinate order.

    Memoised, so equal components and repeated multi-indices are
    differentiated once.  Each partial is taken from the bare expression:
    ``diff(diff(e, x), x)`` comes out larger than ``diff(e, x, 2)``.
    ``alpha == 0`` returns ``e`` as given, so a jet's value rows are the
    components as given.  Every other
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


def _canonical_params(params: Optional[Mapping]) -> Tuple[Tuple[sp.Symbol, np.float64], ...]:
    """``params`` as ``(symbol, value)`` pairs sorted by name.

    The values are numpy floats, as the arrays they meet in a generated
    program are: a power of a Python float that overflows raises
    ``OverflowError``, where a numpy float gives ``inf``, which stops the
    path as a blow-up.
    """
    if not params:
        return ()
    items = []
    for k, v in params.items():
        sym = sp.Symbol(k, real=True) if isinstance(k, str) else k
        items.append((sym, np.float64(v)))
    items.sort(key=lambda kv: kv[0].name)
    return tuple(items)


@lru_cache(maxsize=None)
def _jet_layout(dim: int, order: int, ncomp: int):
    """Distinct partials up to ``order`` and where a jet reads each from.

    Returns ``(alphas, columns)``: ``alphas`` lists every distinct
    multi-index of total order at most ``order``, and ``columns[m]`` maps
    each (component, direction tuple) of the order-``m`` stack, in C
    order, to its row among the flattened partials of ``alphas``
    (:meth:`TensorFieldSpec._exprs`), the partial its sorted directions
    name.
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
        self._evaluators: Dict[Tuple[int, int], Callable] = {}
        syms = set()
        for arr in self.comps.values():
            for idx in np.ndindex(arr.shape) if arr.shape else [()]:
                syms |= arr[idx].free_symbols
        allowed = {TIME, *coord_symbols(self.dim), *(s for s, _ in self.params)}
        missing = syms - allowed
        if missing:
            raise ValueError(f"unbound symbols {sorted(map(str, missing))} in field {name!r}")
        # copies (with_order) keep the expressions, hence the flag
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

    def is_zero(self) -> bool:
        """Whether every component in every chart is the number 0."""
        return all(e.is_Number and e.is_zero for arr in self.comps.values() for e in arr.flat)

    def is_time_independent(self) -> bool:
        """Whether no component in any chart reads ``t`` (found once, at construction)."""
        return self._time_independent

    # -- evaluation --------------------------------------------------------

    def _require(self, chart: int, order: int):
        """Raise ``KeyError`` without components in ``chart`` and
        :class:`InsufficientSmoothness` for partials of total order above
        the declared smoothness."""
        if chart not in self.comps:
            raise KeyError(f"field {self.name!r} has no components in chart {chart}")
        if order > self.smoothness_order:
            raise InsufficientSmoothness(
                f"field {self.name!r} is C^{self.smoothness_order}; "
                f"derivative of order {order} requested"
            )

    def _exprs(self, chart: int, alphas: Tuple[Tuple[int, ...], ...]) -> Tuple[sp.Expr, ...]:
        """Flattened components of every partial ``d^alpha`` in ``alphas``, in order.

        Built anew on each call, after the checks of :meth:`_require`:
        :meth:`_evaluator` holds what it generates from them, and
        :func:`_partial` memoises each partial.
        """
        self._require(chart, max(sum(alpha) for alpha in alphas))
        arr = self.comps[chart]
        return tuple(_partial(arr[idx], alpha) for alpha in alphas
                     for idx in (np.ndindex(arr.shape) if arr.shape else [()]))

    def _evaluator(self, chart: int, order: int):
        """The evaluator of the stacks ``D^0 .. D^order`` in ``chart``.

        Its program returns every entry of each stack in C order, one stack
        after the other.  The value rows print as given, so an order-0
        program is the value program itself and every jet's values are
        bitwise :meth:`eval`'s; each distinct partial of order 1 or
        more (:func:`_jet_layout`) is bound once, in one
        common-subexpression block, and read at each of its symmetric
        entries.  Held per ``(chart, order)``, so a call builds no symbols
        and hashes no expressions.  The checks of :meth:`_require` run
        first; then the program comes from the program cache
        (:func:`_program`), keyed by the chart, ``order``, the components in
        ``chart`` and the parameter names, so a hit differentiates nothing
        and a copy of the field with other parameter values or another name
        shares the entry.
        """
        fn = self._evaluators.get((chart, order))
        if fn is None:
            self._require(chart, order)
            ncomp = prod(self.shape)
            alphas, columns = _jet_layout(self.dim, order, ncomp)
            psyms = tuple(s for s, _ in self.params)

            def source():
                exprs = self._exprs(chart, alphas)
                d = sp.symbols(f"_d0:{len(exprs) - ncomp}")
                rows = exprs[:ncomp] + tuple(d[c - ncomp] for cols in columns[1:] for c in cols)
                return _compiled(rows, (TIME,) + coord_symbols(self.dim) + psyms,
                                 (tuple(zip(d, exprs[ncomp:])),) if d else ())

            fn = self._evaluators[(chart, order)] = _program(
                ("field jets", chart, order, _srepr(self.comps[chart]),
                 tuple(s.name for s in psyms)), source)
        return fn

    def eval(self, t: float, coords: np.ndarray, chart: int = 0) -> TensorValue:
        """The components at one point ``coords`` of shape ``(dim,)``: the
        order-0 stack of :meth:`_jet_last`, which takes it with no batch axis."""
        return TensorValue(self.valence, self._jet_last(t, self._point(coords), chart, 0)[0])

    def _point(self, coords) -> np.ndarray:
        """``coords`` as one point of this field's charts; :class:`ShapeMismatch`
        unless its shape is ``(dim,)``."""
        coords = np.asarray(coords, dtype=float)
        if coords.shape != (self.dim,):
            raise ShapeMismatch(f"field {self.name!r} takes a point of shape ({self.dim},), "
                                f"got {coords.shape}")
        return coords

    def _jet_last(self, t, pts: np.ndarray, chart: int, order: int) -> List[np.ndarray]:
        """Value and derivative stacks up to ``order``, batch-last.

        ``pts`` has shape ``(dim,) + batch``, where ``batch`` may be empty
        (one point), and the m-th stack ``self.shape + (dim,) * m + batch``:
        the axes after the components are the differentiation directions
        (symmetric by construction).  One call of :meth:`_evaluator`'s
        program writes every entry once into one buffer (:func:`_fill`);
        the stacks are C-contiguous views of it.
        """
        fn = self._evaluator(chart, order)
        buf = _fill(fn(t, *pts, *(v for _, v in self.params)),
                    np.broadcast_shapes(np.shape(t), np.shape(pts)[1:]))
        stacks, r = [], 0
        for m in range(order + 1):
            shape = self.shape + (self.dim,) * m
            stacks.append(buf[r:r + prod(shape)].reshape(shape + buf.shape[1:]))
            r += prod(shape)
        return stacks

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
        v, dv = X._jet_last(t, y, chart, 1)  # dv[i, l] = d_l X^i
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
    ``coords`` is one point of shape ``(dim,)``, which ``K`` and ``X``
    share; any other shape raises :class:`ShapeMismatch`.
    """
    if X.valence != (1, 0):
        raise ValenceMismatch(f"direction field has valence {X.valence}, expected (1, 0)")
    coords = X._point(K._point(coords))
    rhs = _freeze_time_rhs(X, t, chart)
    pulled = []
    for sign in (+1.0, -1.0):
        y = coords.copy()
        J = np.eye(K.dim)
        h = sign * eps / nsteps
        for _ in range(nsteps):
            y, J = _rk4_flow_step(rhs, y, J, h)
        pulled.append(transform_tensor(K.eval(t, y, chart), np.linalg.inv(J), J))
    return TensorValue(K.valence, (pulled[0].components - pulled[1].components) / (2.0 * eps))


# ---------------------------------------------------------------------------
# Lie terms from numeric jets
# ---------------------------------------------------------------------------


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
