"""``tools/report_digests.py`` prints one report digest per registered scenario and seed."""

import hashlib
import subprocess
import sys
from pathlib import Path

from flowtensor.kiw_verifier import convergence_study
from flowtensor.scenarios import get_scenario, list_scenarios

TOOL = Path(__file__).resolve().parent.parent / "tools" / "report_digests.py"


def test_report_digests_runs_every_scenario(tmp_path):
    out = subprocess.run([sys.executable, str(TOOL), "--levels", "1"], cwd=tmp_path,
                         capture_output=True, text=True, timeout=600)
    assert out.returncode == 0, out.stderr
    lines = {name: (seed, digest) for name, seed, digest in map(str.split, out.stdout.splitlines())}
    assert list(lines) == list(list_scenarios())
    for name, (seed, _) in lines.items():
        assert seed == str(get_scenario(name).seed), name
    assert lines["kiw_push_lowreg"][1] == "HypothesisViolation"
    report = convergence_study(get_scenario("identity"), levels=1)
    assert lines["identity"][1] == hashlib.md5(repr(report).encode()).hexdigest()
