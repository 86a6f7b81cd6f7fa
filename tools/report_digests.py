"""Print one digest per registered scenario and seed, to compare two trees' reports.

For every scenario of the registry and every seed it prints one line,

    <name> <seed> <md5 of repr(convergence_study(scenario, levels, seed=seed))>

or the exception's name in place of the digest where validation refuses
the scenario (``HypothesisViolation``, ``WiringMismatch``).  Two trees
give the same reports, bit for bit, when their outputs are equal:

    python tools/report_digests.py --seeds registry 4242 > new.txt
    (cd ../other-tree && python tools/report_digests.py --seeds registry 4242) > old.txt
    diff old.txt new.txt

``registry`` (the default) stands for each scenario's own seed.  With
``--flows`` the digest is that of the study's flows instead: one md5 over
every level's :func:`integrate_flow_levels` record on the drivers the
study draws, its ``coords``, ``jac``, ``inv_jac``, ``charts``,
``stop_step`` and ``hops``, level by level.  Two trees integrate the same
flows, bit for bit, when those outputs are equal.

With ``--values`` each line is instead one JSON object of the report's
numbers at round-trip precision: the scenario, the seed, each level's
``rms_sup_residual``, ``max_sup_residual``, ``jac_consistency_max``,
``blowup_fraction`` and ``term_means``, and ``fitted_order`` (or
``error``, the exception's name).  ``--compare OLD NEW`` reads two such
outputs and prints, for each scenario and seed of ``OLD``, the largest
relative difference and the number that carries it:

    python tools/report_digests.py --values --seeds registry 4242 > new.json
    python tools/report_digests.py --compare old.json new.json

The package is imported from the ``src`` directory beside this script.
"""

import argparse
import hashlib
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from flowtensor.flow import integrate_flow_levels  # noqa: E402
from flowtensor.kiw_verifier import (HypothesisViolation, WiringMismatch,  # noqa: E402
                                     convergence_study, validate_scenario)
from flowtensor.scenarios import get_scenario, list_scenarios  # noqa: E402
from flowtensor.stochastics import build_driving_paths, refine_dyadic  # noqa: E402


def _seed(text: str):
    return None if text == "registry" else int(text)


def report_digest(sc, levels: int) -> str:
    """The md5 of the repr of the scenario's convergence study."""
    return hashlib.md5(repr(convergence_study(sc, levels=levels)).encode()).hexdigest()


def study_drivers(sc, levels: int) -> list:
    """The drivers of every level of the scenario's study, coarse to fine, as
    :func:`convergence_study` validates the scenario and draws them."""
    validate_scenario(sc)
    drivers = [build_driving_paths(sc.base_grid, sc.sde.n_noise, sc.seed, sc.n_paths,
                                   sc.fv_specs, sc.mart_specs)]
    while len(drivers) < levels:
        drivers.append(refine_dyadic(drivers[-1]))
    return drivers


def flow_digest(sc, levels: int) -> str:
    """The md5 of every level's flow record in the scenario's study, on
    :func:`study_drivers`."""
    md5 = hashlib.md5()
    for flow in integrate_flow_levels(sc.sde, study_drivers(sc, levels), sc.x0, sc.scheme):
        for name in ("coords", "jac", "inv_jac", "charts", "stop_step"):
            md5.update(np.ascontiguousarray(getattr(flow, name)).tobytes())
        md5.update(repr(flow.hops).encode())
    return md5.hexdigest()


def report_values(sc, levels: int) -> dict:
    """The numbers of the scenario's convergence study."""
    rep = convergence_study(sc, levels=levels)
    keys = ("rms_sup_residual", "max_sup_residual", "jac_consistency_max", "blowup_fraction",
            "term_means")
    return {"levels": [{k: getattr(st, k) for k in keys} for st in rep.levels],
            "fitted_order": rep.fitted_order}


def _leaves(obj, path=""):
    """``(path, value)`` for every number or string of a ``--values`` object."""
    if isinstance(obj, dict):
        for k, v in obj.items():
            yield from _leaves(v, f"{path}.{k}" if path else k)
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            yield from _leaves(v, f"{path}[{i}]")
    else:
        yield path, obj


def _rel(a, b) -> float:
    """``|a - b| / max(|a|, |b|)``: 0 for equal values (NaN equals NaN), inf
    where one is missing, not a number or of another kind."""
    if a == b or all(isinstance(v, float) and math.isnan(v) for v in (a, b)):
        return 0.0
    if not all(isinstance(v, (int, float)) and math.isfinite(v) for v in (a, b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def compare(old_path: str, new_path: str):
    """Print, per scenario and seed of ``old_path``, the largest relative
    difference from ``new_path`` and the number that carries it (``-``
    where nothing differs)."""
    def read(path):
        with open(path, encoding="utf-8") as f:
            rows = [json.loads(line) for line in f if line.strip()]
        return {(r.pop("scenario"), r.pop("seed")): dict(_leaves(r)) for r in rows}

    old, new = read(old_path), read(new_path)
    for (name, seed), values in old.items():
        other = new.get((name, seed), {})
        worst, where = 0.0, "-"
        for path in list(values) + [p for p in other if p not in values]:
            d = _rel(values.get(path), other.get(path))
            if d > worst:
                worst, where = d, path
        print(name, seed, f"{worst:.3g}", where)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("--seeds", nargs="+", type=_seed, default=[None], metavar="SEED",
                        help="seeds to run, 'registry' for each scenario's own (default)")
    parser.add_argument("--levels", type=int, default=4, help="refinement levels (default 4)")
    kind = parser.add_mutually_exclusive_group()
    kind.add_argument("--flows", action="store_true",
                      help="digest the study's flow records instead of its report")
    kind.add_argument("--values", action="store_true",
                      help="print the report's numbers as one JSON object per line")
    kind.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                      help="compare two --values outputs")
    args = parser.parse_args(argv)
    if args.compare:
        compare(*args.compare)
        return
    digest_of = flow_digest if args.flows else report_values if args.values else report_digest
    for name in list_scenarios():
        registered = get_scenario(name)
        for seed in args.seeds:
            sc = replace(registered, seed=registered.seed if seed is None else seed)
            try:
                digest = digest_of(sc, args.levels)
            except (HypothesisViolation, WiringMismatch) as e:
                digest = {"error": type(e).__name__} if args.values else type(e).__name__
            if args.values:
                print(json.dumps({"scenario": name, "seed": sc.seed, **digest}), flush=True)
            else:
                print(name, sc.seed, digest, flush=True)


if __name__ == "__main__":
    main()
