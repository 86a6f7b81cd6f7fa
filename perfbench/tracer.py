"""Self-time spans around the public entry points of each flowtensor layer.

The tracer wraps functions from outside the program: it replaces every
binding of a hooked function in the ``flowtensor`` modules (and
``sympy.lambdify`` in the ``sympy`` namespace) with a timing wrapper,
and puts the originals back on :meth:`Tracer.uninstall`.  A hook whose
target no longer exists is reported as absent, never raised.

Times are self times: a span's duration minus the part covered by spans
nested inside it, so the layer times of a phase add up to the phase's
wall time less ``kiw_verifier.unattributed_s``.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from math import prod

import numpy as np

# metric stem -> (module, attribute path) of every entry point it wraps
HOOKS = {
    "scenarios.build": [("flowtensor.scenarios", "get_scenario")],
    "stochastics.drivers": [
        ("flowtensor.stochastics", "build_driving_paths"),
        ("flowtensor.stochastics", "refine_dyadic"),
    ],
    "stochastics.integrals": [
        ("flowtensor.stochastics", "ito_integral"),
        ("flowtensor.stochastics", "stratonovich_integral"),
        ("flowtensor.stochastics", "fv_integral"),
        ("flowtensor.stochastics", "covariation"),
    ],
    "flow.integrate": [("flowtensor.flow", "integrate_flow")],
    "tensor_calculus.lie_derivative": [("flowtensor.tensor_calculus", "lie_derivative")],
    "tensor_calculus.lambdify": [("sympy", "lambdify")],
    "tensor_calculus.eval": [
        ("flowtensor.tensor_calculus", "TensorFieldSpec.eval_batch"),
        ("flowtensor.tensor_calculus", "TensorFieldSpec.partial_batch"),
        ("flowtensor.tensor_calculus", "TensorFieldSpec.jet_batch"),
    ],
    "tensor_calculus.lie_jet": [("flowtensor.tensor_calculus", "lie_jet")],
    "tensor_calculus.contract": [
        ("flowtensor.tensor_calculus", "pullback_batch"),
        ("flowtensor.tensor_calculus", "pushforward_batch"),
    ],
    "kiw_verifier.transport": [("flowtensor.kiw_verifier", "_push_transport")],
    "kiw_verifier.lhs_self": [("flowtensor.kiw_verifier", "eval_lhs")],
    "kiw_verifier.rhs_self": [("flowtensor.kiw_verifier", "eval_rhs")],
}

# stems whose call count is a metric of its own (``<stem>_calls``)
COUNTED = ("tensor_calculus.lie_derivative", "tensor_calculus.lambdify")

# counters read off the objects the hooked calls return
COUNTERS = (
    "flow.path_steps",
    "flow.stopped_paths",
    "geometry.chart_hops",
    "tensor_calculus.eval_points",
)


def _eval_points(args) -> int:
    """Batch size of a ``TensorFieldSpec`` evaluation ``(self, t, coords, ...)``."""
    t, coords = args[1], args[2]
    return prod(np.broadcast_shapes(np.shape(t), np.shape(coords)[:-1]))


class Tracer:
    def __init__(self):
        self._installed = []  # (namespace, attribute, original)
        self.absent = []
        self._stack = []  # [stem, time covered by nested spans]
        self.reset()

    def reset(self):
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)

    def _observe(self, stem, args, result):
        if stem == "tensor_calculus.eval" and not any(s == stem for s, _ in self._stack):
            self.counts["tensor_calculus.eval_points"] += _eval_points(args)
        elif stem == "flow.integrate":
            done = np.minimum(result.stop_step, result.grid.npoints)
            self.counts["flow.path_steps"] += int(np.sum(done - 1))
            self.counts["flow.stopped_paths"] += int(np.sum(~result.completed))
            self.counts["geometry.chart_hops"] += len(result.hops)

    def _wrap(self, stem, fn):
        @functools.wraps(fn)
        def span(*args, **kwargs):
            frame = [stem, 0.0]
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self._stack.pop()
                self.self_s[stem] += elapsed - frame[1]
                self.calls[stem] += 1
                if self._stack:
                    self._stack[-1][1] += elapsed
            try:
                self._observe(stem, args, result)
            except (AttributeError, IndexError, TypeError, ValueError):
                pass  # a changed signature loses the counter, not the run
            return result

        return span

    def install(self):
        """Wrap every hook target that exists; record the others as absent."""
        self.absent = []
        for stem, targets in HOOKS.items():
            for module_name, path in targets:
                owner = sys.modules.get(module_name)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part, None)
                original = getattr(owner, attr, None)
                if not callable(original):
                    self.absent.append(f"{module_name}.{path}")
                    continue
                wrapper = self._wrap(stem, original)
                if outer:  # a method: one binding, on its class
                    namespaces = [owner]
                else:  # a function: every module that imported it by name
                    namespaces = [owner] + [
                        m for name, m in list(sys.modules.items())
                        if name.split(".")[0] == "flowtensor"
                    ]
                for ns in namespaces:
                    if ns.__dict__.get(attr) is original:
                        setattr(ns, attr, wrapper)
                        self._installed.append((ns, attr, original))

    def uninstall(self):
        for ns, attr, original in reversed(self._installed):
            setattr(ns, attr, original)
        self._installed = []

    def metrics(self, wall_s: float) -> dict:
        """Per-layer metrics of the phase since the last :meth:`reset`."""
        out = {f"{stem}_s": self.self_s[stem] for stem in HOOKS}
        out.update({f"{stem}_calls": self.calls[stem] for stem in COUNTED})
        out.update({name: self.counts[name] for name in COUNTERS})
        out["kiw_verifier.unattributed_s"] = wall_s - sum(self.self_s.values())
        return out
