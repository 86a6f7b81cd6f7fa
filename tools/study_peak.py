"""Print the memory peak of a convergence study per registered scenario.

For each scenario named on the command line (every scenario of the
registry by default, in registry order) it prints one line,

    <name> <peak in MiB>

the peak that ``tracemalloc`` records, in MiB (2**20 bytes, the unit
of perfbench's ``peak_rss_mb``), while ``convergence_study(scenario,
levels=4)`` runs at the scenario's pinned path count.  A one-level
study at the same path count runs first, untraced, so every program the
study reads is compiled or loaded and every cache is filled before the
traced study starts.  Where validation refuses the scenario
(``HypothesisViolation``, ``WiringMismatch``), the exception's name
stands in place of the peak.  Compare two trees with

    python tools/study_peak.py > new.txt
    (cd ../other-tree && python tools/study_peak.py) > old.txt
    diff old.txt new.txt

``--paths`` and ``--levels`` set another size.  The package is imported
from the ``src`` directory beside this script.
"""

import argparse
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from flowtensor.kiw_verifier import (HypothesisViolation, WiringMismatch,  # noqa: E402
                                     convergence_study)
from flowtensor.scenarios import get_scenario, list_scenarios  # noqa: E402


def study_peak(sc, levels: int) -> int:
    """The traced peak, in bytes, of ``sc``'s study of ``levels`` levels,
    after an untraced one-level study."""
    convergence_study(sc, levels=1)
    tracemalloc.start()
    try:
        convergence_study(sc, levels=levels)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("scenarios", nargs="*", metavar="SCENARIO",
                        help="registered scenarios to run (default: all)")
    parser.add_argument("--paths", type=int, help="path count (default: each scenario's own)")
    parser.add_argument("--levels", type=int, default=4, help="refinement levels (default 4)")
    args = parser.parse_args(argv)
    for name in args.scenarios or list_scenarios():
        sc = get_scenario(name)
        if args.paths is not None:
            sc = replace(sc, n_paths=args.paths)
        try:
            peak = f"{study_peak(sc, args.levels) / 2**20:.3f}"
        except (HypothesisViolation, WiringMismatch) as e:
            peak = type(e).__name__
        print(name, peak, flush=True)


if __name__ == "__main__":
    main()
