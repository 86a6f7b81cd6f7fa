"""Benchmark of flowtensor convergence studies, end to end and per layer.

    python3 perfbench/run.py --workload pullback_lie --seed 0 --seconds 30 --trace 0

Run from the root of a checkout.  Each run starts a fresh single-threaded
worker process (``worker.py``) that times set-up and then sweeps timed
``convergence_study`` calls, one seed each, for ``--seconds`` (and, with
``--trace 0``, for at least three studies and an odd number of them).
With ``--trace 0`` it reports the end-to-end metrics, as CPU times of
the worker; set-up is sampled again in further fresh processes (at most
three samples, while their total is under a third of ``--seconds``) and
reported as the median.  With ``--trace 1`` the worker also runs every
study a second time with the layer entry points wrapped (see
``tracer.py``) and reports per-layer self times.

The last line of output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The lines before it name
every metric with its unit, the failed fraction and the machine facts.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 3
TIMEOUT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

E2E_UNITS = {"setup_s": "s", "study_s": "s", "peak_rss_mb": "MB"}


def worker_env() -> dict:
    env = dict(os.environ)
    env.pop("FLOWTENSOR_WORKERS", None)  # serial studies: n_workers=1
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"  # same sympy term order, hence same set-up work, every run
    return env


def run_worker(args, deadline, max_studies=None, trace=0) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
    if max_studies is not None:
        cmd += ["--max-studies", str(max_studies)]
    if args.tiny:
        cmd.append("--tiny")
    timeout = None if deadline is None else max(deadline - time.monotonic(), 1.0)
    proc = subprocess.run(cmd, cwd=ROOT, env=worker_env(), capture_output=True, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker for {args.workload} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return "unknown"


def end_to_end(args, main_run, deadline):
    """Metrics of a ``--trace 0`` run: set-up median, study median, peak RSS.

    Times are CPU times of the single-threaded worker, which leave out the
    time the host gives the virtual CPU to other guests; wall times are
    printed beside them.
    """
    samples = [main_run]
    while len(samples) < SETUP_SAMPLES and sum(s["setup_s"] for s in samples) < args.seconds / 3:
        samples.append(run_worker(args, deadline, max_studies=0))
    studies = main_run["studies"]
    times = {
        "set-up samples, cpu": [s["setup_cpu_s"] for s in samples],
        "set-up samples, wall": [s["setup_s"] for s in samples],
        "timed studies, cpu": [st["cpu_s"] for st in studies],
        "timed studies, wall": [st["wall_s"] for st in studies],
    }
    for label, values in times.items():
        print(f"{label} (s): " + " ".join(f"{t:.3f}" for t in values))
    metrics = {
        "setup_s": statistics.median(times["set-up samples, cpu"]),
        "study_s": statistics.median(times["timed studies, cpu"]),
        "peak_rss_mb": main_run["peak_rss_mb"],
    }
    return metrics, samples, E2E_UNITS


def per_layer(main_run):
    """Metrics of a ``--trace 1`` run: set-up and median per-study layer metrics."""
    studies = main_run["studies"]
    metrics = {f"setup.{k}": v for k, v in main_run["setup_layers"].items()}
    for name in studies[0]["layers"]:
        metrics[f"study.{name}"] = statistics.median([st["layers"][name] for st in studies])
    metrics["study.trace_overhead_s"] = (
        statistics.median([st["traced_wall_s"] for st in studies])
        - statistics.median([st["wall_s"] for st in studies])
    )
    metrics["trace.absent_hooks"] = len(main_run["absent"])
    if main_run["absent"]:
        print("absent hooks (reported as 0): " + ", ".join(main_run["absent"]))
    units = {name: "s" if name.endswith("_s") else "count" for name in metrics}
    units["setup.flow.jac_consistency_max"] = units["study.flow.jac_consistency_max"] = "1"
    return metrics, [main_run], units


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0, help="non-negative; study k uses 1000*seed+k+1")
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="smoke-test size, no reference check")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    deadline = time.monotonic() + TIMEOUT_S
    main_run = run_worker(args, deadline, trace=args.trace)
    if args.trace:
        metrics, samples, units = per_layer(main_run)
    else:
        metrics, samples, units = end_to_end(args, main_run, deadline)

    checks = [s["setup_check"]["problems"] for s in samples]
    for st in main_run["studies"]:
        checks.append(st["problems"])
        if "traced_problems" in st:
            checks.append(st["traced_problems"])
    failed = sum(1 for problems in checks if problems)
    for problems in checks:
        for problem in problems:
            print(f"FAILED: {problem}")

    facts = dict(main_run["versions"], nproc=os.cpu_count(), commit=commit(),
                 threads={var: worker_env()[var] for var in THREAD_VARS})
    print("machine: " + json.dumps(facts))
    for name, value in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {units[name]}")
    print(f"{args.workload} failed_frac = {failed / len(checks):.6g} fraction "
          f"({failed} of {len(checks)} studies)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(checks),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
