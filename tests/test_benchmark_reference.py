"""The benchmark's reference studies, reproduced at their pinned size.

``perfbench/reference.json`` holds the residuals of the first studies of
each benchmark workload (``levels=4`` at the scenario's own path count),
and the benchmark refuses a run whose reports leave them by more than the
file's ``rtol``.  This test reruns one of those studies per workload and
checks it against the file, so a change that moves the numerics shows up
in the test suite, not only in a benchmark run.  It only reads the file.
"""

import json
import math
from pathlib import Path

import pytest

from flowtensor import convergence_study, get_scenario

REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference.json"
# benchmark workload -> registry scenario, as the benchmark runs them
WORKLOADS = {"pullback_lie": "kiw_ito_pullback_r2", "sphere_hops": "kunita_sphere_rotation"}
SEED = 1  # the first study of a benchmark run made with seed 0


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_reference_study_matches_the_benchmark_reference(workload):
    refs = json.loads(REFERENCE.read_text())
    ref = refs["workloads"][workload]["studies"][str(SEED)]
    report = convergence_study(get_scenario(WORKLOADS[workload]), levels=4, seed=SEED)
    rms = [st.rms_sup_residual for st in report.levels]
    assert len(rms) == len(ref["rms"])
    for got, want in zip(rms + [report.fitted_order], ref["rms"] + [ref["fitted_order"]]):
        assert math.isclose(got, want, rel_tol=refs["rtol"]), (got, want)
