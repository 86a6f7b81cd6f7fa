"""Command line runner emitting CSV residual tables.

A run is configured by a flat key-value file with dotted keys plus a
handful of overriding flags, picks a scenario (built-in by name, or an
inline table of atlas / field names with numeric parameters), executes
the convergence study and writes two files into the output directory:

``<scenario>.csv``
    One row per refinement level with the columns ``level``, ``h``,
    ``rms_sup_residual``, ``fitted_order``, one ``term_<name>`` column
    per identity term (the mean over paths of the per-path sup magnitude
    over the rows before the path's stop) and ``jac_consistency_max``.
    Full float precision, ``.`` decimal separator, LF line endings, fixed
    column order, so repeated runs with the same configuration and seed
    are byte-identical.
``<scenario>.manifest.json``
    The resolved configuration, seed and library version.

Exit codes: 0 success, 1 configuration / file trouble (a stdout closed
before the output is printed counts as file trouble), 2 a scenario
failed its hypothesis validation, 3 more than half the paths blew up.

Config keys (all optional unless noted)::

    run.scenario      built-in scenario name (or give scenario.* keys)
    run.seed          integer stream seed
    run.paths         number of Monte Carlo paths (>= 1)
    run.levels        number of dyadic refinement levels (>= 1)
    run.steps         override the base grid step count
    run.scheme        euler_maruyama | heun
    run.bracket_mode  closed_form | realized
    run.out           output directory (made if missing)

    scenario.name     name for an inline scenario (required inline), a plain
                      file name: no / or \\, not . or ..
    scenario.theorem  identity selector, e.g. KunitaSecond
    scenario.atlas    euclidean:<dim> | torus:<dim> | sphere2
    scenario.drift    field spec, see below
    scenario.noise.<j>  field spec for the j-th noise (j = 0, 1, ...)
    scenario.K0       metric | one_form:<i> | position_one_form
    scenario.x0       comma-separated start coordinates, in a chart
    scenario.horizon  finite time horizon > 0 (default 1.0)
    scenario.steps    base grid steps (default 16)
    scenario.scheme   euler_maruyama | heun

Field specs are ``name`` or ``name:p1,p2,...``: ``zero``,
``constant:c1,..,cn``, ``linear:a11,a12,..,ann`` (row-major),
``rotation:rate`` (planar), ``gbm:sigma`` (line), and for the sphere
atlas the noise spec ``sphere_rotation:rx,ry,rz`` which expands to the
three rotation generators.  Inline scenarios carry no tensor-path
drivers, so selectors that need them reduce to their static forms.

A study may hold at most ``MAX_STUDY_STATES`` flow states (paths times
the grid points of all levels, see
:func:`flowtensor.kiw_verifier.study_states`); a larger one exits 1.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
import sympy as sp

from . import __version__
from .fields import (
    DEFAULT_SMOOTHNESS,
    sphere_rotation_fields,
    sphere_round_metric,
)
from .flow import SCHEMES, FlowSDE
from .geometry import ChartAtlas, euclidean_atlas, locate_chart_batch, sphere_atlas, torus_atlas
from .kiw_verifier import (
    HypothesisViolation,
    ResidualReport,
    Scenario,
    WiringMismatch,
    convergence_study,
    study_states,
    validate_scenario,
)
from .scenarios import get_scenario, scenario_table
from .stochastics import BRACKET_MODES, TimeGrid
from .tensor_calculus import TensorFieldSpec, VectorFieldSpec, coord_symbols

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_HYPOTHESIS = 2
EXIT_BLOWUP = 3

_RUN_KEYS = {
    "run.scenario",
    "run.seed",
    "run.paths",
    "run.levels",
    "run.steps",
    "run.scheme",
    "run.bracket_mode",
    "run.out",
}
_SCENARIO_KEYS = {
    "scenario.name",
    "scenario.theorem",
    "scenario.atlas",
    "scenario.drift",
    "scenario.K0",
    "scenario.x0",
    "scenario.horizon",
    "scenario.steps",
    "scenario.scheme",
}


class ConfigError(Exception):
    pass


# ---------------------------------------------------------------------------
# config file
# ---------------------------------------------------------------------------


def parse_config_text(text: str) -> Dict[str, str]:
    """Parse ``key = value`` lines; ``#`` starts a comment line."""
    out: Dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if not key or not val:
            raise ConfigError(f"line {lineno}: empty key or value")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = val
    return out


def _check_keys(cfg: Dict[str, str]):
    for key in cfg:
        if key in _RUN_KEYS or key in _SCENARIO_KEYS:
            continue
        if key.startswith("scenario.noise."):
            tail = key[len("scenario.noise."):]
            if tail.isdigit():
                continue
        raise ConfigError(f"unknown config key {key!r}")


def _as_int(cfg: Dict[str, str], key: str) -> Optional[int]:
    if key not in cfg:
        return None
    try:
        return int(cfg[key])
    except ValueError:
        raise ConfigError(f"{key}: expected an integer, got {cfg[key]!r}")


def _as_float(val: str, where: str) -> float:
    try:
        return float(val)
    except ValueError:
        raise ConfigError(f"{where}: expected a number, got {val!r}")


def _as_floats(val: str, where: str) -> List[float]:
    return [_as_float(p.strip(), where) for p in val.split(",")]


def _as_choice(cfg: Dict[str, str], key: str, choices: Sequence[str]) -> Optional[str]:
    if key not in cfg:
        return None
    if cfg[key] not in choices:
        raise ConfigError(f"{key}: expected one of {', '.join(choices)}, got {cfg[key]!r}")
    return cfg[key]


# ---------------------------------------------------------------------------
# inline scenarios
# ---------------------------------------------------------------------------


def _positive_int(arg: str, where: str) -> int:
    """Positive integer parameter of an inline spec."""
    try:
        value = int(arg)
    except ValueError:
        value = 0
    if value < 1:
        raise ConfigError(f"{where}: expected a positive integer, got {arg!r}")
    return value


def _inline_atlas(spec: str) -> Tuple[ChartAtlas, str]:
    name, _, arg = spec.partition(":")
    if name == "euclidean":
        if not arg:
            raise ConfigError("scenario.atlas: euclidean needs a dimension, e.g. euclidean:2")
        return euclidean_atlas(_positive_int(arg, "scenario.atlas")), name
    if name == "torus":
        return torus_atlas(_positive_int(arg or "2", "scenario.atlas")), name
    if name == "sphere2":
        if arg:
            raise ConfigError("scenario.atlas: sphere2 takes no parameter")
        return sphere_atlas(), name
    raise ConfigError(f"scenario.atlas: unknown atlas {spec!r}")


def _field_params(spec: str, where: str) -> Tuple[str, List[float]]:
    name, _, arg = spec.partition(":")
    return name, (_as_floats(arg, where) if arg else [])


def _vector_over_charts(atlas: ChartAtlas, comps, name: str) -> VectorFieldSpec:
    return VectorFieldSpec(
        atlas.dim, {ch.id: comps for ch in atlas.charts}, DEFAULT_SMOOTHNESS, name=name
    )


def _inline_vector_field(
    spec: str, atlas: ChartAtlas, kind: str, where: str
) -> VectorFieldSpec:
    name, params = _field_params(spec, where)
    dim = atlas.dim
    xs = coord_symbols(dim)
    zero = [sp.Integer(0)] * dim
    if name == "zero":
        return _vector_over_charts(atlas, zero, "zero")
    if name == "constant":
        if kind == "sphere2":
            raise ConfigError(f"{where}: constant fields are not defined on the sphere charts")
        if len(params) != dim:
            raise ConfigError(f"{where}: constant needs {dim} components")
        return _vector_over_charts(atlas, [sp.Float(c) for c in params], "constant")
    if name == "linear":
        if kind != "euclidean":
            raise ConfigError(f"{where}: linear fields need the euclidean atlas")
        if len(params) != dim * dim:
            raise ConfigError(f"{where}: linear needs {dim * dim} row-major entries")
        comps = [
            sum((sp.Float(params[i * dim + j]) * xs[j] for j in range(dim)), sp.Integer(0))
            for i in range(dim)
        ]
        return _vector_over_charts(atlas, comps, "linear")
    if name == "rotation":
        if kind != "euclidean" or dim != 2:
            raise ConfigError(f"{where}: rotation needs the planar euclidean atlas")
        rate = params[0] if params else 1.0
        return _vector_over_charts(
            atlas, [-sp.Float(rate) * xs[1], sp.Float(rate) * xs[0]], "rotation"
        )
    if name == "gbm":
        if kind != "euclidean" or dim != 1:
            raise ConfigError(f"{where}: gbm needs the one-dimensional euclidean atlas")
        sigma = params[0] if params else 1.0
        return _vector_over_charts(atlas, [sp.Float(sigma) * xs[0]], "gbm")
    raise ConfigError(f"{where}: unknown field {name!r}")


def _inline_noises(cfg: Dict[str, str], atlas: ChartAtlas, kind: str):
    idx = sorted(
        int(k[len("scenario.noise."):]) for k in cfg if k.startswith("scenario.noise.")
    )
    if idx and idx != list(range(len(idx))):
        raise ConfigError("scenario.noise.<j> indices must be 0, 1, ... without gaps")
    out = []
    for j in idx:
        spec = cfg[f"scenario.noise.{j}"]
        where = f"scenario.noise.{j}"
        if spec.partition(":")[0] == "sphere_rotation":
            if kind != "sphere2":
                raise ConfigError(f"{where}: sphere_rotation needs the sphere2 atlas")
            _, params = _field_params(spec, where)
            rates = tuple(params) if params else (1.0, 1.0, 1.0)
            if len(rates) != 3:
                raise ConfigError(f"{where}: sphere_rotation takes three rates")
            out.extend(sphere_rotation_fields(rates))
        else:
            out.append(_inline_vector_field(spec, atlas, kind, where))
    return tuple(out)


def _inline_k0(spec: str, atlas: ChartAtlas, kind: str) -> TensorFieldSpec:
    name, _, arg = spec.partition(":")
    dim = atlas.dim
    xs = coord_symbols(dim)
    if name == "metric":
        if kind == "sphere2":
            return sphere_round_metric()
        comps = [
            [sp.Integer(1) if i == j else sp.Integer(0) for j in range(dim)]
            for i in range(dim)
        ]
        return TensorFieldSpec(
            (0, 2),
            dim,
            {ch.id: comps for ch in atlas.charts},
            DEFAULT_SMOOTHNESS,
            name="metric",
        )
    if name == "one_form":
        if kind == "sphere2":
            raise ConfigError("scenario.K0: one_form is not defined on the sphere charts")
        try:
            i = int(arg) if arg else 0
        except ValueError:
            raise ConfigError(f"scenario.K0: one_form needs an index, got {arg!r}") from None
        if not 0 <= i < dim:
            raise ConfigError(f"scenario.K0: one_form index out of range for dim {dim}")
        comps = [sp.Integer(1) if j == i else sp.Integer(0) for j in range(dim)]
        return TensorFieldSpec(
            (0, 1),
            dim,
            {ch.id: comps for ch in atlas.charts},
            DEFAULT_SMOOTHNESS,
            name=f"one_form_{i}",
        )
    if name == "position_one_form":
        if kind != "euclidean":
            raise ConfigError("scenario.K0: position_one_form needs the euclidean atlas")
        return TensorFieldSpec(
            (0, 1), dim, {0: list(xs)}, DEFAULT_SMOOTHNESS, name="position_one_form"
        )
    raise ConfigError(f"scenario.K0: unknown field {spec!r}")


def _build_inline_scenario(cfg: Dict[str, str]) -> Scenario:
    if "scenario.name" not in cfg:
        raise ConfigError("inline scenarios need scenario.name")
    name = cfg["scenario.name"]
    if not name or name in (".", "..") or "/" in name or "\\" in name:
        # the reports are written as <name>.csv and <name>.manifest.json in the output directory
        raise ConfigError(f"scenario.name: expected a plain file name, got {name!r}")
    if "scenario.atlas" not in cfg:
        raise ConfigError("inline scenarios need scenario.atlas")
    atlas, kind = _inline_atlas(cfg["scenario.atlas"])
    theorem = cfg.get("scenario.theorem", "KunitaSecond")
    drift = _inline_vector_field(
        cfg.get("scenario.drift", "zero"), atlas, kind, "scenario.drift"
    )
    noises = _inline_noises(cfg, atlas, kind)
    k0 = _inline_k0(cfg.get("scenario.K0", "metric"), atlas, kind)
    if "scenario.x0" in cfg:
        x0 = np.array(_as_floats(cfg["scenario.x0"], "scenario.x0"))
        if x0.size != atlas.dim:
            raise ConfigError(f"scenario.x0: expected {atlas.dim} coordinates")
        with np.errstate(over="ignore", invalid="ignore"):  # huge coordinates overflow
            covered = locate_chart_batch(atlas, x0[None, :], 0)[0] >= 0
        if not covered:
            raise ConfigError(f"scenario.x0: {cfg['scenario.x0']!r} lies in no chart of "
                              f"the {atlas.name} atlas")
    else:
        x0 = np.array(atlas.charts[0].center, dtype=float)
    horizon = _as_float(cfg.get("scenario.horizon", "1.0"), "scenario.horizon")
    if not 0 < horizon < np.inf:
        raise ConfigError(
            f"scenario.horizon: expected a finite positive number, got {cfg['scenario.horizon']!r}"
        )
    steps = _positive_int(cfg.get("scenario.steps", "16"), "scenario.steps")
    scheme = _as_choice(cfg, "scenario.scheme", SCHEMES) or "euler_maruyama"
    return Scenario(
        name=name,
        description="inline scenario",
        theorem=theorem,
        sde=FlowSDE(drift=drift, diffusions=noises, atlas=atlas),
        K0=k0,
        x0=x0,
        base_grid=TimeGrid(horizon, steps),
        scheme=scheme,
    )


# ---------------------------------------------------------------------------
# run plumbing
# ---------------------------------------------------------------------------


@dataclass
class RunConfig:
    scenario: Scenario  # with the run's steps, scheme and bracket mode
    seed: Optional[int] = None
    paths: Optional[int] = None
    levels: int = 4
    out: Path = Path(".")
    raw: Dict[str, str] = field(default_factory=dict)


def _resolve_config(args) -> RunConfig:
    cfg: Dict[str, str] = {}
    if args.config is not None:
        try:
            cfg = parse_config_text(Path(args.config).read_text())
        except OSError as e:
            raise ConfigError(f"cannot read config: {e}")
        _check_keys(cfg)

    named = args.scenario or cfg.get("run.scenario")
    inline = any(k.startswith("scenario.") for k in cfg)
    if named and inline:
        raise ConfigError("give either run.scenario or inline scenario.* keys, not both")
    if named:
        try:
            scenario = get_scenario(named)
        except KeyError as e:
            raise ConfigError(str(e.args[0]))
    elif inline:
        scenario = _build_inline_scenario(cfg)
    else:
        raise ConfigError("no scenario selected; pass a name, run.scenario or scenario.* keys")

    rc = RunConfig(scenario=scenario, raw=dict(cfg))
    rc.seed = _as_int(cfg, "run.seed")
    rc.paths = _as_int(cfg, "run.paths")
    levels = _as_int(cfg, "run.levels")
    if levels is not None:
        rc.levels = levels
    steps = _as_int(cfg, "run.steps")
    scheme = _as_choice(cfg, "run.scheme", SCHEMES)
    bracket_mode = _as_choice(cfg, "run.bracket_mode", BRACKET_MODES)
    if "run.out" in cfg:
        rc.out = Path(cfg["run.out"])

    if args.seed is not None:
        rc.seed = args.seed
    if args.paths is not None:
        rc.paths = args.paths
    if args.levels is not None:
        rc.levels = args.levels
    if args.out is not None:
        rc.out = Path(args.out)
    # the reports are written after the study, so an output path that cannot
    # be a directory is refused before it
    try:
        existing = next((p for p in (rc.out, *rc.out.parents) if p.exists()), rc.out)
        problem = None if existing.is_dir() else f"{str(existing)!r} is not a directory"
    except (OSError, ValueError) as e:  # e.g. a name too long, a NUL byte
        problem = str(e)
    if problem:
        raise ConfigError(f"{'--out' if args.out is not None else 'run.out'}: {problem}")

    # the key or flag each count came from, None where the scenario's default holds
    where = {
        key: f"--{key}" if getattr(args, key, None) is not None
        else f"run.{key}" if f"run.{key}" in cfg else None
        for key in ("seed", "paths", "levels", "steps")
    }
    if where["steps"] is None and "scenario.steps" in cfg:
        where["steps"] = "scenario.steps"
    if rc.seed is not None and not 0 <= rc.seed < 2**64:
        raise ConfigError(f"{where['seed']}: expected an integer in [0, 2**64), got {rc.seed}")
    for key, value in (("paths", rc.paths), ("levels", rc.levels), ("steps", steps)):
        if value is not None and value < 1:
            raise ConfigError(f"{where[key]}: {key} must be >= 1, got {value}")
    steps = steps or scenario.base_grid.steps
    try:
        study_states(rc.paths or scenario.n_paths, steps, rc.levels)
    except ValueError as e:
        keys = [w for w in (where["paths"], where["levels"], where["steps"]) if w]
        raise ConfigError(f"{', '.join(keys) or 'scenario'}: {e}") from None
    rc.scenario = replace(
        scenario,
        base_grid=TimeGrid(scenario.base_grid.horizon, steps),
        scheme=scheme or scenario.scheme,
        bracket_mode=bracket_mode or scenario.bracket_mode,
    )
    return rc


def _worker_count() -> int:
    raw = os.environ.get("FLOWTENSOR_WORKERS", "1")
    try:
        n = int(raw)
    except ValueError:
        raise ConfigError(f"FLOWTENSOR_WORKERS: expected an integer, got {raw!r}")
    if n < 1:
        raise ConfigError("FLOWTENSOR_WORKERS must be >= 1")
    return n


def _fmt(x: float) -> str:
    return "%.17g" % x


def csv_text(report: ResidualReport) -> str:
    term_names = sorted({k for st in report.levels for k in st.term_means})
    cols = (
        ["level", "h", "rms_sup_residual", "fitted_order"]
        + [f"term_{n}" for n in term_names]
        + ["jac_consistency_max"]
    )
    lines = [",".join(cols)]
    for st in report.levels:
        row = [str(st.level), _fmt(st.h), _fmt(st.rms_sup_residual), _fmt(report.fitted_order)]
        row += [_fmt(st.term_means.get(n, 0.0)) for n in term_names]
        row.append(_fmt(st.jac_consistency_max))
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def _manifest_text(rc: RunConfig, report: ResidualReport) -> str:
    resolved = {
        "scenario": report.scenario,
        "theorem": report.theorem,
        "scheme": report.scheme,
        "seed": report.seed,
        "paths": report.levels[0].n_paths if report.levels else None,
        "levels": len(report.levels),
        "bracket_mode": rc.scenario.bracket_mode,
    }
    manifest = {
        "config": rc.raw,
        "resolved": resolved,
        "seed": report.seed,
        "version": __version__,
    }
    return json.dumps(manifest, sort_keys=True, indent=2) + "\n"


def _finite_or_none(x: float) -> Optional[float]:
    # strict JSON has no NaN literal; degenerate zero-residual runs fit no order
    return float(x) if np.isfinite(x) else None


def _machine_report(report: ResidualReport) -> str:
    payload = {
        "scenario": report.scenario,
        "theorem": report.theorem,
        "scheme": report.scheme,
        "seed": report.seed,
        "fitted_order": _finite_or_none(report.fitted_order),
        "levels": [
            {
                "level": st.level,
                "h": st.h,
                "steps": st.steps,
                "rms_sup_residual": _finite_or_none(st.rms_sup_residual),
                "max_sup_residual": _finite_or_none(st.max_sup_residual),
                "jac_consistency_max": _finite_or_none(st.jac_consistency_max),
                "blowup_fraction": st.blowup_fraction,
                "terms": {k: _finite_or_none(v) for k, v in st.term_means.items()},
            }
            for st in report.levels
        ],
    }
    return json.dumps(payload, sort_keys=True, allow_nan=False)


def _list_text(machine: bool) -> str:
    rows = scenario_table()
    if machine:
        payload = [
            {"name": n, "theorem": t, "description": d} for (n, t, d) in rows
        ]
        return json.dumps(payload, sort_keys=True)
    width = max(len(n) for n, _, _ in rows)
    twidth = max(len(t) for _, t, _ in rows)
    lines = [f"{n:<{width}}  {t:<{twidth}}  {d}" for (n, t, d) in rows]
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="flowtensor",
        description="run a transport-identity convergence study and write CSV reports",
    )
    p.add_argument("scenario", nargs="?", help="built-in scenario name")
    p.add_argument("--config", metavar="PATH", help="key-value config file")
    p.add_argument("--seed", type=int, metavar="N", help="override the driver seed")
    p.add_argument("--paths", type=int, metavar="N", help="override the path count")
    p.add_argument("--levels", type=int, metavar="N", help="number of refinement levels")
    p.add_argument("--out", metavar="DIR", help="output directory (default .)")
    p.add_argument("--list", action="store_true", help="list built-in scenarios and exit")
    p.add_argument(
        "--machine-readable",
        action="store_true",
        help="emit JSON instead of aligned text",
    )
    return p


def run(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list:
        print(_list_text(args.machine_readable))
        return EXIT_OK
    try:
        rc = _resolve_config(args)
        workers = _worker_count()
    except ConfigError as e:
        print(f"flowtensor: {e}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        validate_scenario(rc.scenario)
    except HypothesisViolation as e:
        print(f"flowtensor: hypothesis violation: {e}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except WiringMismatch as e:
        print(f"flowtensor: {e}", file=sys.stderr)
        return EXIT_CONFIG

    report = convergence_study(
        rc.scenario, levels=rc.levels, n_paths=rc.paths, seed=rc.seed, n_workers=workers
    )

    try:
        rc.out.mkdir(parents=True, exist_ok=True)
        (rc.out / f"{report.scenario}.csv").write_text(csv_text(report))
        (rc.out / f"{report.scenario}.manifest.json").write_text(_manifest_text(rc, report))
    except OSError as e:
        print(f"flowtensor: cannot write report: {e}", file=sys.stderr)
        return EXIT_CONFIG

    if args.machine_readable:
        print(_machine_report(report))
    else:
        for line in report.summary_lines():
            print(line)

    if any(st.blowup_fraction > 0.5 for st in report.levels):
        print("flowtensor: more than half the paths blew up", file=sys.stderr)
        return EXIT_BLOWUP
    return EXIT_OK


def main():
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early (``flowtensor --list | head``); a study
        # has written its reports by then.  Point stdout at devnull so the
        # interpreter's flush at exit has nothing left to report.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_CONFIG
    sys.exit(code)


if __name__ == "__main__":
    main()
