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

``--paths`` and ``--levels`` set another size.  With ``--sweep`` each
line gains a third field,

    <name> <peak in MiB> <sweep peak in MiB>

the traced peak of :func:`integrate_flow_levels` alone on the drivers
the study draws, built as ``tools/report_digests.py --flows`` builds
them before the trace starts, and with ``Jinv`` where the study
integrates it (:func:`flowtensor.kiw_verifier._reads_flow_inverse`).  A
study holds its drivers beside its sweep, so where the study's peak
exceeds the sweep's by about the drivers' size, the sweep binds the
study; by more, the reduction of its levels does.  The package is
imported from the ``src`` directory beside this script.
"""

import argparse
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from flowtensor.flow import integrate_flow_levels  # noqa: E402
from flowtensor.kiw_verifier import (HypothesisViolation, WiringMismatch,  # noqa: E402
                                     _reads_flow_inverse, convergence_study)
from flowtensor.scenarios import get_scenario, list_scenarios  # noqa: E402
from report_digests import study_drivers  # noqa: E402


def _traced_peak(run) -> int:
    """The traced peak, in bytes, while ``run()`` runs."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def study_peak(sc, levels: int) -> int:
    """The traced peak, in bytes, of ``sc``'s study of ``levels`` levels,
    after an untraced one-level study."""
    convergence_study(sc, levels=1)
    return _traced_peak(lambda: convergence_study(sc, levels=levels))


def sweep_peak(sc, levels: int) -> int:
    """The traced peak, in bytes, of the sweep of ``sc``'s study of
    ``levels`` levels on its drivers, drawn untraced."""
    drivers = study_drivers(sc, levels)
    return _traced_peak(lambda: integrate_flow_levels(sc.sde, drivers, sc.x0, sc.scheme,
                                                      with_inv=_reads_flow_inverse(sc)))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("scenarios", nargs="*", metavar="SCENARIO",
                        help="registered scenarios to run (default: all)")
    parser.add_argument("--paths", type=int, help="path count (default: each scenario's own)")
    parser.add_argument("--levels", type=int, default=4, help="refinement levels (default 4)")
    parser.add_argument("--sweep", action="store_true",
                        help="also print the peak of the study's flow sweep alone")
    args = parser.parse_args(argv)
    for name in args.scenarios or list_scenarios():
        sc = get_scenario(name)
        if args.paths is not None:
            sc = replace(sc, n_paths=args.paths)
        try:
            peaks = [study_peak(sc, args.levels)]
            if args.sweep:
                peaks.append(sweep_peak(sc, args.levels))
            peak = " ".join(f"{b / 2**20:.3f}" for b in peaks)
        except (HypothesisViolation, WiringMismatch) as e:
            peak = type(e).__name__
        print(name, peak, flush=True)


if __name__ == "__main__":
    main()
