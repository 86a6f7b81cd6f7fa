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
flows, bit for bit, when those outputs are equal.  The package is
imported from the ``src`` directory beside this script.
"""

import argparse
import hashlib
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


def flow_digest(sc, levels: int) -> str:
    """The md5 of every level's flow record in the scenario's study, as
    :func:`convergence_study` validates the scenario and draws its drivers."""
    validate_scenario(sc)
    drivers = [build_driving_paths(sc.base_grid, sc.sde.n_noise, sc.seed, sc.n_paths,
                                   sc.fv_specs, sc.mart_specs)]
    while len(drivers) < levels:
        drivers.append(refine_dyadic(drivers[-1]))
    md5 = hashlib.md5()
    for flow in integrate_flow_levels(sc.sde, drivers, sc.x0, sc.scheme):
        for name in ("coords", "jac", "inv_jac", "charts", "stop_step"):
            md5.update(np.ascontiguousarray(getattr(flow, name)).tobytes())
        md5.update(repr(flow.hops).encode())
    return md5.hexdigest()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("--seeds", nargs="+", type=_seed, default=[None], metavar="SEED",
                        help="seeds to run, 'registry' for each scenario's own (default)")
    parser.add_argument("--levels", type=int, default=4, help="refinement levels (default 4)")
    parser.add_argument("--flows", action="store_true",
                        help="digest the study's flow records instead of its report")
    args = parser.parse_args(argv)
    digest_of = flow_digest if args.flows else report_digest
    for name in list_scenarios():
        registered = get_scenario(name)
        for seed in args.seeds:
            sc = replace(registered, seed=registered.seed if seed is None else seed)
            try:
                digest = digest_of(sc, args.levels)
            except (HypothesisViolation, WiringMismatch) as e:
                digest = type(e).__name__
            print(name, sc.seed, digest, flush=True)


if __name__ == "__main__":
    main()
