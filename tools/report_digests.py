"""Print one digest per registered scenario and seed, to compare two trees' reports.

For every scenario of the registry and every seed it prints one line,

    <name> <seed> <md5 of repr(convergence_study(scenario, levels, seed=seed))>

or the exception's name in place of the digest where validation refuses
the scenario (``HypothesisViolation``, ``WiringMismatch``).  Two trees
give the same reports, bit for bit, when their outputs are equal:

    python tools/report_digests.py --seeds registry 4242 > new.txt
    (cd ../other-tree && python tools/report_digests.py --seeds registry 4242) > old.txt
    diff old.txt new.txt

``registry`` (the default) stands for each scenario's own seed.  The
package is imported from the ``src`` directory beside this script.
"""

import argparse
import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from flowtensor.kiw_verifier import (HypothesisViolation, WiringMismatch,  # noqa: E402
                                     convergence_study)
from flowtensor.scenarios import get_scenario, list_scenarios  # noqa: E402


def _seed(text: str):
    return None if text == "registry" else int(text)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("--seeds", nargs="+", type=_seed, default=[None], metavar="SEED",
                        help="seeds to run, 'registry' for each scenario's own (default)")
    parser.add_argument("--levels", type=int, default=4, help="refinement levels (default 4)")
    args = parser.parse_args(argv)
    for name in list_scenarios():
        sc = get_scenario(name)
        for seed in args.seeds:
            seed = sc.seed if seed is None else seed
            try:
                report = convergence_study(sc, levels=args.levels, seed=seed)
            except (HypothesisViolation, WiringMismatch) as e:
                digest = type(e).__name__
            else:
                digest = hashlib.md5(repr(report).encode()).hexdigest()
            print(name, seed, digest, flush=True)


if __name__ == "__main__":
    main()
