"""One workload process: set-up, then a sweep of timed convergence studies.

Started by ``run.py`` in a fresh interpreter, single-threaded, with the
checkout's ``src`` on ``PYTHONPATH``.  Set-up is timed (wall and CPU
time) from the first line of this file, before ``import flowtensor``, through
``get_scenario`` and one single-level study at the workload's path
count, which fills sympy's cache, the lambdify cache and the flow step
kernels.  Prints one JSON object as its last line of output.
"""

import time

T0 = time.perf_counter()
C0 = time.process_time()

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# workload -> registry scenario; each runs at its pinned size with 4 levels
WORKLOADS = {
    "pullback_lie": "kiw_ito_pullback_r2",
    "sphere_hops": "kunita_sphere_rotation",
}
LEVELS = 4
# an untraced run times at least this many studies, and an odd number, so that
# study_s is the time of one study in the middle rather than a mean of two
MIN_STUDIES = 3
TINY = dict(n_paths=6, steps=4, levels=2)  # smoke-test size


def study_seed(seed: int, k: int) -> int:
    """Seed of the k-th study of a run made with ``--seed seed``."""
    return 1000 * seed + k + 1


def check(report, seed, levels, n_paths, ref, rtol):
    """Correctness problems of one report (empty list when it passes)."""
    problems = []
    if report.seed != seed or len(report.levels) != levels:
        problems.append(f"report is for seed {report.seed} with {len(report.levels)} levels")
    for st in report.levels:
        if st.n_paths != n_paths:
            problems.append(f"level {st.level}: {st.n_paths} paths, expected {n_paths}")
        if not math.isfinite(st.rms_sup_residual):
            problems.append(f"level {st.level}: rms_sup_residual is {st.rms_sup_residual}")
        if st.blowup_fraction != 0.0:
            problems.append(f"level {st.level}: {st.blowup_fraction:.3f} of the paths stopped")
    if ref is not None:
        rms = [st.rms_sup_residual for st in report.levels]
        pairs = list(zip(rms, ref["rms"]))
        if "fitted_order" in ref:
            pairs.append((report.fitted_order, ref["fitted_order"]))
        if len(rms) != len(ref["rms"]) or not all(
            math.isclose(got, want, rel_tol=rtol) for got, want in pairs
        ):
            problems.append(f"rms {rms} / order {report.fitted_order} differ from reference {ref}")
    return problems


def summary(report) -> dict:
    return {
        "seed": report.seed,
        "rms": [st.rms_sup_residual for st in report.levels],
        "fitted_order": report.fitted_order,
        "jac_consistency_max": max(st.jac_consistency_max for st in report.levels),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--max-studies", type=int, default=1_000_000)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args(argv)

    import flowtensor
    from flowtensor.stochastics import TimeGrid

    t_import = time.perf_counter() - T0
    if Path(flowtensor.__file__).resolve().parent.parent != SRC:
        sys.exit(f"flowtensor imported from {flowtensor.__file__}, not from {SRC}")

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    refs = json.loads((HERE / "reference.json").read_text())
    ref = refs["workloads"].get(args.workload, {})
    rtol = refs["rtol"]

    sc = flowtensor.get_scenario(WORKLOADS[args.workload])
    levels = LEVELS
    if args.tiny:
        grid = TimeGrid(sc.base_grid.horizon, TINY["steps"])
        sc = dataclasses.replace(sc, n_paths=TINY["n_paths"], base_grid=grid)
        levels = TINY["levels"]
        ref = {}
    setup_report = flowtensor.convergence_study(sc, levels=1)
    setup_s = time.perf_counter() - T0
    setup_cpu_s = time.process_time() - C0
    problems = check(setup_report, sc.seed, 1, sc.n_paths, ref.get("setup"), rtol)
    out = {
        "setup_s": setup_s,
        "setup_cpu_s": setup_cpu_s,
        "setup_check": {"summary": summary(setup_report), "problems": problems},
        "studies": [],
        "versions": {
            "python": sys.version.split()[0],
            "numpy": sys.modules["numpy"].__version__,
            "sympy": sys.modules["sympy"].__version__,
        },
    }
    if tracer is not None:
        tracer.uninstall()
        setup_layers = tracer.metrics(setup_s - t_import)
        setup_layers["import_s"] = t_import
        setup_layers["flow.jac_consistency_max"] = summary(setup_report)["jac_consistency_max"]
        out["setup_layers"] = setup_layers
        out["absent"] = tracer.absent

    def timed_study(seed):
        """Wall time, CPU time, report and correctness problems of one study."""
        start, cpu_start = time.perf_counter(), time.process_time()
        try:
            report = flowtensor.convergence_study(sc, levels=levels, seed=seed)
            problems = []
        except Exception as exc:  # a failed study is counted, not fatal
            report, problems = None, [f"{type(exc).__name__}: {exc}"]
        wall, cpu = time.perf_counter() - start, time.process_time() - cpu_start
        if report is not None:
            problems = check(report, seed, levels, sc.n_paths,
                             ref.get("studies", {}).get(str(seed)), rtol)
        return wall, cpu, report, problems

    def another(k):
        if k >= args.max_studies:
            return False
        if k < (1 if tracer else MIN_STUDIES):
            return True
        return time.perf_counter() - sweep_start < args.seconds or (not tracer and k % 2 == 0)

    sweep_start = time.perf_counter()
    k = 0
    while another(k):
        seed = study_seed(args.seed, k)
        wall, cpu, report, problems = timed_study(seed)
        study = {"seed": seed, "wall_s": wall, "cpu_s": cpu, "problems": problems,
                 "summary": summary(report) if report is not None else None}
        if tracer is not None:
            tracer.reset()
            tracer.install()
            try:
                t_wall, _, t_report, t_problems = timed_study(seed)
            finally:
                tracer.uninstall()
            layers = tracer.metrics(t_wall)
            layers["flow.jac_consistency_max"] = 0.0
            if t_report is not None:
                layers["flow.jac_consistency_max"] = summary(t_report)["jac_consistency_max"]
                if report is not None and repr(t_report) != repr(report):
                    t_problems.append("traced report differs from the untraced one")
            study.update(traced_wall_s=t_wall, traced_problems=t_problems, layers=layers)
        out["studies"].append(study)
        k += 1
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
