"""``tools/report_digests.py`` prints one report digest per registered scenario and seed."""

import hashlib
import subprocess
import sys
from pathlib import Path

import numpy as np

from flowtensor.flow import integrate_flow
from flowtensor.kiw_verifier import convergence_study
from flowtensor.scenarios import get_scenario, list_scenarios
from flowtensor.stochastics import build_driving_paths

TOOL = Path(__file__).resolve().parent.parent / "tools" / "report_digests.py"


def _run(tmp_path, *args):
    """The tool's lines as ``{name: (seed, digest)}``, every scenario at its own seed."""
    out = subprocess.run([sys.executable, str(TOOL), *args], cwd=tmp_path,
                         capture_output=True, text=True, timeout=600)
    assert out.returncode == 0, out.stderr
    lines = {name: (seed, digest) for name, seed, digest in map(str.split, out.stdout.splitlines())}
    assert list(lines) == list(list_scenarios())
    for name, (seed, _) in lines.items():
        assert seed == str(get_scenario(name).seed), name
    assert lines["kiw_push_lowreg"][1] == "HypothesisViolation"
    return lines


def test_report_digests_runs_every_scenario(tmp_path):
    lines = _run(tmp_path, "--levels", "1")
    report = convergence_study(get_scenario("identity"), levels=1)
    assert lines["identity"][1] == hashlib.md5(repr(report).encode()).hexdigest()


def test_flow_digests_run_every_scenario(tmp_path):
    lines = _run(tmp_path, "--flows", "--levels", "1")
    sc = get_scenario("kunita_sphere_rotation")
    d = build_driving_paths(sc.base_grid, sc.sde.n_noise, sc.seed, sc.n_paths)
    flow = integrate_flow(sc.sde, d, sc.x0, sc.scheme)
    md5 = hashlib.md5()
    for name in ("coords", "jac", "inv_jac", "charts", "stop_step"):
        md5.update(np.ascontiguousarray(getattr(flow, name)).tobytes())
    md5.update(repr(flow.hops).encode())
    assert flow.hops  # the digest covers chart hops
    assert lines["kunita_sphere_rotation"][1] == md5.hexdigest()
