"""Record the reference residuals that the benchmark's correctness gate checks.

    python3 perfbench/record_reference.py

For every workload it runs set-up and the first ``STUDIES`` studies made
with ``--seed 0`` and rewrites ``reference.json``.  Record again only for
a change that is meant to alter the numerics, and say so in its review.
"""

import argparse
import json

from run import HERE, run_worker
from worker import WORKLOADS

STUDIES = 4
RTOL = 1e-9  # round-off (cse=True moves values by ~3e-14), not a changed algorithm


def main():
    refs = {"rtol": RTOL, "workloads": {}}
    for workload in WORKLOADS:
        args = argparse.Namespace(workload=workload, seed=0, seconds=1e9, tiny=False)
        out = run_worker(args, None, max_studies=STUDIES)
        refs["workloads"][workload] = {
            "setup": {"rms": out["setup_check"]["summary"]["rms"]},
            "studies": {
                str(st["seed"]): {key: st["summary"][key] for key in ("rms", "fitted_order")}
                for st in out["studies"]
            },
        }
        print(workload, json.dumps(refs["workloads"][workload]), flush=True)
    (HERE / "reference.json").write_text(json.dumps(refs, indent=1) + "\n")


if __name__ == "__main__":
    main()
