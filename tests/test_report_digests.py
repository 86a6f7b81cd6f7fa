"""``tools/report_digests.py`` prints one report digest per registered scenario and seed."""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

from flowtensor.flow import integrate_flow
from flowtensor.kiw_verifier import convergence_study
from flowtensor.scenarios import get_scenario, list_scenarios
from flowtensor.stochastics import build_driving_paths

TOOL = Path(__file__).resolve().parent.parent / "tools" / "report_digests.py"


def _stdout(tmp_path, *args) -> str:
    out = subprocess.run([sys.executable, str(TOOL), *args], cwd=tmp_path,
                         capture_output=True, text=True, timeout=600)
    assert out.returncode == 0, out.stderr
    return out.stdout


def _run(tmp_path, *args):
    """The tool's lines as ``{name: (seed, digest)}``, every scenario at its own seed."""
    lines = {name: (seed, digest)
             for name, seed, digest in map(str.split, _stdout(tmp_path, *args).splitlines())}
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


def test_values_print_the_report_numbers_and_compare_them(tmp_path):
    """``--values`` prints each report's numbers at round-trip precision;
    ``--compare`` of an output with itself prints zeros, and against a copy
    with one number perturbed exactly that number's change."""
    text = _stdout(tmp_path, "--values", "--levels", "1")
    rows = [json.loads(line) for line in text.splitlines()]
    assert [r["scenario"] for r in rows] == list(list_scenarios())
    by_name = {r["scenario"]: r for r in rows}
    assert by_name["kiw_push_lowreg"]["error"] == "HypothesisViolation"
    sc = get_scenario("kiw_ito_pullback_r2")
    want = convergence_study(sc, levels=1).levels[0]
    got = by_name["kiw_ito_pullback_r2"]["levels"][0]
    assert by_name["kiw_ito_pullback_r2"]["seed"] == sc.seed
    for key in ("rms_sup_residual", "max_sup_residual", "jac_consistency_max",
                "blowup_fraction", "term_means"):
        assert got[key] == getattr(want, key), key

    old = tmp_path / "old.json"
    old.write_text(text)
    same = [line.split() for line in _stdout(tmp_path, "--compare", str(old), str(old)).splitlines()]
    assert [(name, diff, where) for name, _, diff, where in same] == [
        (name, "0", "-") for name in list_scenarios()]

    got["term_means"]["L_b"] *= 1 + 1e-6
    new = tmp_path / "new.json"
    new.write_text("".join(json.dumps(r) + "\n" for r in rows))
    moved = {name: (diff, where) for name, _, diff, where in
             map(str.split, _stdout(tmp_path, "--compare", str(old), str(new)).splitlines())}
    assert moved.pop("kiw_ito_pullback_r2") == ("1e-06", "levels[0].term_means.L_b")
    assert set(moved.values()) == {("0", "-")}
