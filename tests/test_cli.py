"""End-to-end CLI behaviour: exit codes, golden bytes, config parsing."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

CLI = [sys.executable, "-m", "flowtensor.cli"]


def run_cli(*args, env=None, cwd=None):
    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    return subprocess.run(
        CLI + list(args), capture_output=True, text=True, env=full_env, cwd=cwd
    )


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, ln.split(","))) for ln in lines[1:]]
    return header, rows


# ---------------------------------------------------------------------------
# listing
# ---------------------------------------------------------------------------


def test_list_names_every_scenario():
    out = run_cli("--list")
    assert out.returncode == 0
    names = [ln.split()[0] for ln in out.stdout.strip().splitlines()]
    assert "identity" in names
    assert len(names) >= 7


def test_list_machine_readable_covers_all_selectors():
    out = run_cli("--list", "--machine-readable")
    assert out.returncode == 0
    rows = json.loads(out.stdout)
    theorems = {r["theorem"] for r in rows}
    assert theorems == {
        "ScalarItoWentzell",
        "KiwItoPullback",
        "KiwItoPushforward",
        "KiwStratPullback",
        "KiwStratPushforward",
        "KunitaFirst",
        "KunitaSecond",
    }
    assert all(r["description"] for r in rows)


# ---------------------------------------------------------------------------
# named runs
# ---------------------------------------------------------------------------


def test_identity_run_writes_zero_residual_csv(tmp_path):
    out = run_cli("identity", "--out", str(tmp_path))
    assert out.returncode == 0, out.stderr
    header, rows = read_csv(tmp_path / "identity.csv")
    assert header[:4] == ["level", "h", "rms_sup_residual", "fitted_order"]
    assert header[-1] == "jac_consistency_max"
    assert all(c.startswith("term_") for c in header[4:-1])
    assert header[4:-1] == sorted(header[4:-1])
    for row in rows:
        assert float(row["rms_sup_residual"]) == 0.0
        assert row["fitted_order"] == "nan"
    manifest = json.loads((tmp_path / "identity.manifest.json").read_text())
    assert manifest["resolved"]["scenario"] == "identity"
    assert manifest["resolved"]["theorem"] == "KunitaSecond"
    assert set(manifest) == {"config", "resolved", "seed", "version"}


def test_csv_levels_halve_h(tmp_path):
    out = run_cli("gbm_oneform", "--out", str(tmp_path), "--paths", "8", "--levels", "3")
    assert out.returncode == 0, out.stderr
    _, rows = read_csv(tmp_path / "gbm_oneform.csv")
    hs = [float(r["h"]) for r in rows]
    assert hs[1] == pytest.approx(hs[0] / 2)
    assert hs[2] == pytest.approx(hs[0] / 4)
    assert [int(r["level"]) for r in rows] == [0, 1, 2]


def test_machine_readable_run_is_strict_json(tmp_path):
    out = run_cli(
        "identity", "--out", str(tmp_path), "--machine-readable"
    )
    assert out.returncode == 0, out.stderr

    def no_constants(name):
        raise ValueError(f"non-finite literal {name}")

    payload = json.loads(out.stdout, parse_constant=no_constants)
    assert payload["scenario"] == "identity"
    assert payload["fitted_order"] is None  # zero residual fits no slope
    assert payload["levels"][0]["rms_sup_residual"] == 0.0


def test_unknown_scenario_exits_one_and_names_known(tmp_path):
    out = run_cli("not_a_scenario", "--out", str(tmp_path))
    assert out.returncode == 1
    assert "identity" in out.stderr


def test_low_regularity_scenario_fails_validation(tmp_path):
    out = run_cli("kiw_push_lowreg", "--out", str(tmp_path))
    assert out.returncode == 2
    assert "hypothesis violation" in out.stderr
    assert "k = 3" in out.stderr
    assert not (tmp_path / "kiw_push_lowreg.csv").exists()


def test_blowup_scenario_exits_three_but_reports(tmp_path):
    out = run_cli("blowup_cubic", "--out", str(tmp_path), "--paths", "8", "--levels", "1")
    assert out.returncode == 3
    assert "blew up" in out.stderr
    assert (tmp_path / "blowup_cubic.csv").exists()
    assert (tmp_path / "blowup_cubic.manifest.json").exists()


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------


def test_same_config_same_bytes(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out_dir in (a, b):
        r = run_cli(
            "kiw_ito_pullback_bracket",
            "--out", str(out_dir), "--paths", "16", "--levels", "2",
        )
        assert r.returncode == 0, r.stderr
    name = "kiw_ito_pullback_bracket"
    assert (a / f"{name}.csv").read_bytes() == (b / f"{name}.csv").read_bytes()
    assert (
        a / f"{name}.manifest.json"
    ).read_bytes() == (b / f"{name}.manifest.json").read_bytes()


def test_worker_count_does_not_change_bytes(tmp_path):
    a, b = tmp_path / "serial", tmp_path / "pooled"
    for out_dir, workers in ((a, "1"), (b, "8")):
        r = run_cli(
            "kiw_ito_pullback_bracket",
            "--out", str(out_dir), "--paths", "24", "--levels", "2",
            env={"FLOWTENSOR_WORKERS": workers},
        )
        assert r.returncode == 0, r.stderr
    name = "kiw_ito_pullback_bracket"
    assert (a / f"{name}.csv").read_bytes() == (b / f"{name}.csv").read_bytes()


def test_seed_override_changes_report(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    r1 = run_cli("kiw_ito_pullback_bracket", "--out", str(a), "--paths", "8",
                 "--levels", "1", "--seed", "100")
    r2 = run_cli("kiw_ito_pullback_bracket", "--out", str(b), "--paths", "8",
                 "--levels", "1", "--seed", "101")
    assert r1.returncode == 0 and r2.returncode == 0
    name = "kiw_ito_pullback_bracket"
    assert (a / f"{name}.csv").read_bytes() != (b / f"{name}.csv").read_bytes()
    m = json.loads((a / f"{name}.manifest.json").read_text())
    assert m["seed"] == 100


# ---------------------------------------------------------------------------
# config files
# ---------------------------------------------------------------------------


def write_config(tmp_path, text):
    p = tmp_path / "run.cfg"
    p.write_text(text)
    return p


def test_config_file_named_run(tmp_path):
    cfg = write_config(
        tmp_path,
        "run.scenario = identity\n"
        "run.paths = 4\n"
        "run.levels = 2\n"
        f"run.out = {tmp_path}\n",
    )
    out = run_cli("--config", str(cfg))
    assert out.returncode == 0, out.stderr
    assert (tmp_path / "identity.csv").exists()


def test_config_inline_sphere_scenario(tmp_path):
    cfg = write_config(
        tmp_path,
        "scenario.name = rolling_sphere\n"
        "scenario.atlas = sphere2\n"
        "scenario.noise.0 = sphere_rotation:0.9,1.1,0.7\n"
        "scenario.K0 = metric\n"
        "scenario.x0 = 0.4,0.2\n"
        "scenario.steps = 8\n"
        "run.paths = 6\n"
        "run.levels = 2\n"
        f"run.out = {tmp_path}\n",
    )
    out = run_cli("--config", str(cfg))
    assert out.returncode == 0, out.stderr
    header, rows = read_csv(tmp_path / "rolling_sphere.csv")
    assert len(rows) == 2
    manifest = json.loads((tmp_path / "rolling_sphere.manifest.json").read_text())
    assert manifest["resolved"]["theorem"] == "KunitaSecond"


def test_config_inline_gbm_line_scenario(tmp_path):
    cfg = write_config(
        tmp_path,
        "scenario.name = log_line\n"
        "scenario.atlas = euclidean:1\n"
        "scenario.drift = zero\n"
        "scenario.noise.0 = gbm:0.4\n"
        "scenario.K0 = position_one_form\n"
        "scenario.x0 = 1.0\n"
        "run.paths = 8\n"
        "run.levels = 2\n"
        f"run.out = {tmp_path}\n",
    )
    out = run_cli("--config", str(cfg))
    assert out.returncode == 0, out.stderr
    assert (tmp_path / "log_line.csv").exists()


def test_config_steps_override_scales_h(tmp_path):
    cfg = write_config(
        tmp_path,
        "run.scenario = identity\nrun.steps = 32\nrun.levels = 1\n"
        f"run.out = {tmp_path}\n",
    )
    out = run_cli("--config", str(cfg))
    assert out.returncode == 0, out.stderr
    _, rows = read_csv(tmp_path / "identity.csv")
    assert float(rows[0]["h"]) == pytest.approx(1.0 / 32.0)


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("run.scenario = identity\nrun.scenario = identity\n", "line 2"),
        ("run.wat = 1\n", "unknown"),
        ("run.scenario = identity\nscenario.name = x\nscenario.atlas = euclidean:1\n", ""),
        ("scenario.atlas = euclidean:1\n", "scenario.name"),
        ("run.scenario = identity\nrun.paths = 0\n", ""),
        ("run.scenario = identity\nrun.scheme = leapfrog\n", ""),
        ("scenario.name = x\nscenario.atlas = euclidean:abc\n", "scenario.atlas"),
        ("scenario.name = x\nscenario.atlas = torus:0\n", "scenario.atlas"),
        ("scenario.name = x\nscenario.atlas = euclidean:2\nscenario.K0 = one_form:z\n",
         "scenario.K0"),
    ],
)
def test_config_errors_exit_one(tmp_path, text, fragment):
    cfg = write_config(tmp_path, text)
    out = run_cli("--config", str(cfg))
    assert out.returncode == 1
    assert fragment in out.stderr


def test_missing_config_file_exits_one(tmp_path):
    out = run_cli("--config", str(tmp_path / "absent.cfg"))
    assert out.returncode == 1


def test_scenario_argument_conflicts_with_inline_config(tmp_path):
    cfg = write_config(
        tmp_path, "scenario.name = x\nscenario.atlas = euclidean:1\n"
    )
    out = run_cli("identity", "--config", str(cfg), "--out", str(tmp_path))
    assert out.returncode == 1


def test_no_scenario_at_all_exits_one(tmp_path):
    out = run_cli("--out", str(tmp_path))
    assert out.returncode == 1
