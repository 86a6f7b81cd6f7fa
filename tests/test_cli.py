"""End-to-end CLI behaviour: exit codes, golden bytes, config parsing.

Most runs call :func:`flowtensor.cli.run` in this process (:func:`run_cli`).
A subprocess is kept where the process is the subject: ``main()`` and its
exit code, a closed stdout, the ``python -m`` entry point, and the two
byte-for-byte comparisons of separate runs, whose module state (compiled
programs, the loaded program cache) must not be shared.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from flowtensor import cli

CLI = [sys.executable, "-m", "flowtensor.cli"]
SRC = Path(__file__).resolve().parent.parent / "src"


def cli_env(env=None):
    """The caller's environment with ``src`` first on an absolute ``PYTHONPATH``."""
    full_env = dict(os.environ, **(env or {}))
    full_env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), full_env.get("PYTHONPATH")]))
    return full_env


def run_cli_process(*args, cwd, env=None):
    """Run ``python -m flowtensor.cli`` in ``cwd``, in a process of its own."""
    return subprocess.run(
        CLI + list(args), capture_output=True, text=True, env=cli_env(env), cwd=cwd
    )


def run_cli(*args, cwd, env=None):
    """Run the CLI in ``cwd``, so a wrongly accepted run writes nowhere else.

    In process: :func:`cli.run` with ``cwd`` as the working directory and
    ``env`` set, both undone afterwards.  The result is a
    ``CompletedProcess``, as :func:`run_cli_process`'s: the exit code (an
    argparse exit's too) and the text written to stdout and stderr, every
    warning raised on the way among the latter.  An uncaught exception is
    not turned into an exit code; it fails the test with its traceback.
    """
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        mp.chdir(cwd)
        for key, value in (env or {}).items():
            mp.setenv(key, value)
        warnings.simplefilter("default")
        try:
            code = cli.run(list(args))
        except SystemExit as e:
            code = e.code
    for w in caught:
        err.write(warnings.formatwarning(w.message, w.category, w.filename, w.lineno, w.line))
    return subprocess.CompletedProcess(list(args), code, out.getvalue(), err.getvalue())


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, ln.split(","))) for ln in lines[1:]]
    return header, rows


# ---------------------------------------------------------------------------
# listing
# ---------------------------------------------------------------------------


def test_list_names_every_scenario(tmp_path):
    out = run_cli("--list", cwd=tmp_path)
    assert out.returncode == 0
    names = [ln.split()[0] for ln in out.stdout.strip().splitlines()]
    assert "identity" in names
    assert len(names) >= 7


def test_list_machine_readable_covers_all_selectors(tmp_path):
    out = run_cli("--list", "--machine-readable", cwd=tmp_path)
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
    out = run_cli("identity", "--out", str(tmp_path), cwd=tmp_path)
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
    out = run_cli("gbm_oneform", "--out", str(tmp_path), "--paths", "8", "--levels", "3",
                  cwd=tmp_path)
    assert out.returncode == 0, out.stderr
    _, rows = read_csv(tmp_path / "gbm_oneform.csv")
    hs = [float(r["h"]) for r in rows]
    assert hs[1] == pytest.approx(hs[0] / 2)
    assert hs[2] == pytest.approx(hs[0] / 4)
    assert [int(r["level"]) for r in rows] == [0, 1, 2]


def test_machine_readable_run_is_strict_json(tmp_path):
    out = run_cli(
        "identity", "--out", str(tmp_path), "--machine-readable", cwd=tmp_path
    )
    assert out.returncode == 0, out.stderr

    def no_constants(name):
        raise ValueError(f"non-finite literal {name}")

    payload = json.loads(out.stdout, parse_constant=no_constants)
    assert payload["scenario"] == "identity"
    assert payload["fitted_order"] is None  # zero residual fits no slope
    assert payload["levels"][0]["rms_sup_residual"] == 0.0


def test_unknown_scenario_exits_one_and_names_known(tmp_path):
    out = run_cli("not_a_scenario", "--out", str(tmp_path), cwd=tmp_path)
    assert out.returncode == 1
    assert "identity" in out.stderr


@pytest.mark.parametrize(
    "args, fragment",
    [(("--paths", "x", "identity"), "argument --paths: invalid int value: 'x'"),
     (("--bogus",), "unrecognized arguments: --bogus"),
     (("identity", "extra"), "unrecognized arguments: extra")],
)
def test_usage_errors_exit_one(tmp_path, args, fragment):
    """A usage error exits 1 with argparse's usage line and message; 2 is a hypothesis violation."""
    out = run_cli(*args, cwd=tmp_path)
    assert out.returncode == 1
    assert out.stderr.startswith("usage: flowtensor")
    assert f"flowtensor: error: {fragment}" in out.stderr
    assert "Traceback" not in out.stderr
    assert run_cli("--help", cwd=tmp_path).returncode == 0


def test_low_regularity_scenario_fails_validation(tmp_path):
    # through main() and the python -m entry point, so the exit code is the process's
    out = run_cli_process("kiw_push_lowreg", "--out", str(tmp_path), cwd=tmp_path)
    assert out.returncode == 2
    assert "hypothesis violation" in out.stderr
    assert "k = 3" in out.stderr
    assert not (tmp_path / "kiw_push_lowreg.csv").exists()


def test_blowup_scenario_exits_three_but_reports(tmp_path):
    out = run_cli("blowup_cubic", "--out", str(tmp_path), "--paths", "8", "--levels", "1",
                  cwd=tmp_path)
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
        r = run_cli_process(
            "kiw_ito_pullback_bracket",
            "--out", str(out_dir), "--paths", "16", "--levels", "2", cwd=tmp_path,
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
        r = run_cli_process(
            "kiw_ito_pullback_bracket",
            "--out", str(out_dir), "--paths", "24", "--levels", "2",
            env={"FLOWTENSOR_WORKERS": workers}, cwd=tmp_path,
        )
        assert r.returncode == 0, r.stderr
    name = "kiw_ito_pullback_bracket"
    assert (a / f"{name}.csv").read_bytes() == (b / f"{name}.csv").read_bytes()


@pytest.mark.parametrize("workers", ["abc", "0", "-2"])
def test_invalid_worker_count_exits_one(tmp_path, workers):
    out = run_cli("identity", "--out", str(tmp_path), env={"FLOWTENSOR_WORKERS": workers},
                  cwd=tmp_path)
    assert out.returncode == 1
    assert "FLOWTENSOR_WORKERS" in out.stderr
    assert "Traceback" not in out.stderr


def test_seed_override_changes_report(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    r1 = run_cli("kiw_ito_pullback_bracket", "--out", str(a), "--paths", "8",
                 "--levels", "1", "--seed", "100", cwd=tmp_path)
    r2 = run_cli("kiw_ito_pullback_bracket", "--out", str(b), "--paths", "8",
                 "--levels", "1", "--seed", "101", cwd=tmp_path)
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
    out = run_cli("--config", str(cfg), cwd=tmp_path)
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
    out = run_cli("--config", str(cfg), cwd=tmp_path)
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
    out = run_cli("--config", str(cfg), cwd=tmp_path)
    assert out.returncode == 0, out.stderr
    assert (tmp_path / "log_line.csv").exists()


@pytest.mark.parametrize("theorem", ["KiwItoPushforward", "KunitaFirst"])
def test_config_inline_noiseless_transport_scenario(tmp_path, theorem):
    """An inline flow with no noise field runs on the transport selectors, and
    both report the term series of the assembly's rule: ``L_b`` alone."""
    cfg = write_config(
        tmp_path,
        "scenario.name = still\n"
        "scenario.atlas = euclidean:2\n"
        f"scenario.theorem = {theorem}\n"
        "scenario.drift = rotation:1\n"
        "run.paths = 3\n"
        "run.levels = 2\n"
        f"run.out = {tmp_path}\n",
    )
    out = run_cli("--config", str(cfg), cwd=tmp_path)
    assert out.returncode == 0, out.stderr
    header, rows = read_csv(tmp_path / "still.csv")
    assert header == ["level", "h", "rms_sup_residual", "fitted_order", "term_L_b",
                      "jac_consistency_max"]
    assert len(rows) == 2 and all(np.isfinite(float(r["rms_sup_residual"])) for r in rows)


def test_config_steps_override_scales_h(tmp_path):
    cfg = write_config(
        tmp_path,
        "run.scenario = identity\nrun.steps = 32\nrun.levels = 1\n"
        f"run.out = {tmp_path}\n",
    )
    out = run_cli("--config", str(cfg), cwd=tmp_path)
    assert out.returncode == 0, out.stderr
    _, rows = read_csv(tmp_path / "identity.csv")
    assert float(rows[0]["h"]) == pytest.approx(1.0 / 32.0)


def test_config_scheme_and_bracket_mode_reach_the_study(tmp_path):
    """``run.scheme`` and ``run.bracket_mode`` give the report of the scenario
    with both replaced, and the manifest names them."""
    from dataclasses import replace

    from flowtensor.cli import csv_text
    from flowtensor.kiw_verifier import convergence_study
    from flowtensor.scenarios import get_scenario

    cfg = write_config(
        tmp_path,
        "run.scenario = kiw_ito_pullback_bracket\n"
        "run.scheme = heun\n"
        "run.bracket_mode = realized\n",
    )
    out = run_cli("--config", str(cfg), "--paths", "6", "--levels", "2", "--out", str(tmp_path),
                  cwd=tmp_path)
    assert out.returncode == 0, out.stderr
    sc = get_scenario("kiw_ito_pullback_bracket")

    def study(**settings):
        return csv_text(convergence_study(replace(sc, **settings), levels=2, n_paths=6))

    got = (tmp_path / "kiw_ito_pullback_bracket.csv").read_text()
    assert got == study(scheme="heun", bracket_mode="realized")
    # each setting changes the report, so neither is dropped on the way
    assert got != study(scheme="heun") and got != study(bracket_mode="realized")
    manifest = json.loads((tmp_path / "kiw_ito_pullback_bracket.manifest.json").read_text())
    assert manifest["resolved"]["scheme"] == "heun"
    assert manifest["resolved"]["bracket_mode"] == "realized"


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
        ("run.scenario = identity\nrun.seed = -1\n", "run.seed"),
        ("run.scenario = identity\nrun.seed = 18446744073709551616\n", "run.seed"),
        ("scenario.name = x\nscenario.atlas = euclidean:1\nscenario.steps = 0\n",
         "scenario.steps"),
        ("scenario.name = x\nscenario.atlas = euclidean:1\nscenario.horizon = -1\n",
         "scenario.horizon"),
        ("scenario.name = x\nscenario.atlas = euclidean:1\nscenario.horizon = nan\n",
         "scenario.horizon"),
        ("scenario.name = x\nscenario.atlas = euclidean:1\nscenario.horizon = inf\n",
         "scenario.horizon"),
        ("scenario.name = x\nscenario.atlas = euclidean:1\nscenario.x0 = nan\n", "scenario.x0"),
        ("scenario.name = x\nscenario.atlas = euclidean:1\nscenario.x0 = 1e300\n",
         "scenario.x0"),
        ("scenario.name = x\nscenario.atlas = sphere2\nscenario.x0 = 1e300,0\n", "scenario.x0"),
        # a field parameter is a finite number
        ("scenario.name = x\nscenario.atlas = sphere2\n"
         "scenario.noise.0 = sphere_rotation:nan,1.1,0.7\n", "scenario.noise.0"),
        ("scenario.name = x\nscenario.atlas = euclidean:1\nscenario.noise.0 = gbm:inf\n",
         "scenario.noise.0"),
        ("scenario.name = x\nscenario.atlas = euclidean:2\nscenario.drift = constant:nan,0\n",
         "scenario.drift"),
        ("scenario.name = x\nscenario.atlas = euclidean:2\nscenario.noise.0 = linear:1,0,0,-inf\n",
         "scenario.noise.0"),
        ("scenario.name = x\nscenario.atlas = euclidean:2\nscenario.drift = rotation:nan\n",
         "scenario.drift"),
        ("run.scenario = identity\nrun.levels = 0\n", "run.levels"),
        ("run.scenario = identity\nrun.levels = 64\n", "run.levels: a study of 64 levels"),
        ("run.scenario = identity\nrun.paths = 100000000000000000000000\n",
         "run.paths: a study of 100000000000000000000000 paths"),
        ("scenario.name = x\nscenario.atlas = euclidean:1\nscenario.steps = 100000000\n",
         "scenario.steps: a study of 100 paths"),
        # the reports are <name>.csv and <name>.manifest.json in the output directory
        ("scenario.name = ../x\nscenario.atlas = euclidean:1\n", "scenario.name"),
        ("scenario.name = ../../x\nscenario.atlas = euclidean:1\n", "scenario.name"),
        ("scenario.name = sub/a\nscenario.atlas = euclidean:1\n", "scenario.name"),
        ("scenario.name = sub\\a\nscenario.atlas = euclidean:1\n", "scenario.name"),
        ("scenario.name = .\nscenario.atlas = euclidean:1\n", "scenario.name"),
        ("scenario.name = ..\nscenario.atlas = euclidean:1\n", "scenario.name"),
        # ``file`` is a file in the run's working directory
        ("run.scenario = identity\nrun.out = file\n", "run.out: 'file' is not a directory"),
        ("run.scenario = identity\nrun.out = file/sub\n", "run.out: 'file' is not a directory"),
        # a noise index is ASCII decimal without leading zeros
        ("scenario.name = x\nscenario.atlas = euclidean:1\nscenario.noise.00 = zero\n",
         "unknown config key 'scenario.noise.00'"),
        ("scenario.name = x\nscenario.atlas = euclidean:1\nscenario.noise.\u00b2 = zero\n",
         "unknown config key 'scenario.noise.\u00b2'"),
    ],
)
def test_config_errors_exit_one(tmp_path, text, fragment):
    """Exit 1 with the key named, writing nothing outside ``tmp_path/out``."""
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    (out_dir / "file").write_text("")
    cfg = write_config(tmp_path, text)
    before = set(tmp_path.rglob("*"))
    out = run_cli("--config", str(cfg), cwd=out_dir)
    assert out.returncode == 1
    assert fragment in out.stderr
    assert "Traceback" not in out.stderr
    assert "Warning" not in out.stderr
    assert all(out_dir in p.parents for p in set(tmp_path.rglob("*")) - before)
    assert not (tmp_path.parent / "x.csv").exists()


@pytest.mark.parametrize("atlas,noise", [("sphere2", "sphere_rotation:1e300,1.1,0.7"),
                                         ("euclidean:1", "gbm:1e300")])
def test_an_overflowing_field_parameter_blows_up_the_paths(tmp_path, atlas, noise):
    """A finite parameter whose square overflows becomes ``inf`` in the step
    program, as an array entry would, and the paths blow up: exit 3, no
    traceback, and no ``RuntimeWarning`` among the warnings :func:`run_cli`
    records, since non-finite values are what a blown-up study reports
    (numpy's overflow and invalid-value checks are off while it runs)."""
    cfg = write_config(tmp_path, f"scenario.name = big\nscenario.atlas = {atlas}\n"
                                 f"scenario.noise.0 = {noise}\nrun.paths = 4\nrun.levels = 2\n")
    out = run_cli("--config", str(cfg), "--out", str(tmp_path), cwd=tmp_path)
    assert out.returncode == 3
    assert "blew up" in out.stderr
    assert "Traceback" not in out.stderr
    assert "RuntimeWarning" not in out.stderr, out.stderr


def test_an_overflowing_jacobian_blows_up_the_paths(tmp_path):
    """From the origin, where both fields vanish, the points stay finite
    while the drift's Jacobian entry of 1e300 overflows ``J``: the
    non-finite ``J`` stops each path as a blow-up, exit 3, no traceback."""
    cfg = write_config(tmp_path, "scenario.name = stiff\nscenario.atlas = euclidean:2\n"
                                 "scenario.drift = linear:1e300,0,0,1\n"
                                 "scenario.noise.0 = rotation:1\nrun.paths = 4\nrun.levels = 2\n")
    out = run_cli("--config", str(cfg), "--out", str(tmp_path), cwd=tmp_path)
    assert out.returncode == 3
    assert "blew up" in out.stderr
    assert "Traceback" not in out.stderr


@pytest.mark.parametrize("out_arg", ["file", "file/sub"])
def test_out_flag_naming_a_file_exits_one(tmp_path, out_arg):
    (tmp_path / "file").write_text("")
    out = run_cli("identity", "--out", out_arg, cwd=tmp_path)
    assert out.returncode == 1
    assert "--out: 'file' is not a directory" in out.stderr
    assert "Traceback" not in out.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file"]


@pytest.mark.parametrize("argv", [
    ["identity", "--out", "file"],
    ["--config", "run.cfg"],
])
def test_report_path_errors_come_before_the_study(tmp_path, monkeypatch, argv):
    from flowtensor import cli, kiw_verifier

    def no_draws(*args, **kwargs):
        raise AssertionError("drivers drawn for a run whose reports cannot be written")

    monkeypatch.setattr(kiw_verifier, "build_driving_paths", no_draws)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "file").write_text("")
    write_config(tmp_path, "scenario.name = sub/a\nscenario.atlas = euclidean:1\n")
    assert cli.run(argv) == 1


def test_closed_form_bracket_without_antiderivative_exits_one(tmp_path, monkeypatch, capsys):
    """A scenario whose ``sigma_int`` driver has no ``sigma_antideriv`` exits 1
    with the wiring error, before any driver is drawn, and runs under the
    realized bracket."""
    from dataclasses import replace

    from flowtensor import cli, kiw_verifier, scenarios

    sc = scenarios.get_scenario("kiw_ito_pullback_bracket")
    bare = replace(sc, name="bare_bracket",
                   mart_specs=(replace(sc.mart_specs[0], sigma_antideriv=None),))
    monkeypatch.setitem(scenarios._BUILDERS, "bare_bracket", lambda: bare)
    monkeypatch.chdir(tmp_path)
    draws = kiw_verifier.build_driving_paths

    def no_draws(*args, **kwargs):
        raise AssertionError("drivers drawn for a scenario that fails its wiring check")

    monkeypatch.setattr(kiw_verifier, "build_driving_paths", no_draws)
    assert cli.run(["bare_bracket", "--paths", "2", "--levels", "2"]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "'sigma_int' has no closed-form bracket" in err
    assert not list(tmp_path.iterdir())
    monkeypatch.setattr(kiw_verifier, "build_driving_paths", draws)
    write_config(tmp_path, "run.scenario = bare_bracket\nrun.bracket_mode = realized\n"
                           "run.paths = 2\nrun.levels = 2\n")
    assert cli.run(["--config", "run.cfg"]) == cli.EXIT_OK
    assert (tmp_path / "bare_bracket.csv").is_file()


@pytest.mark.parametrize("dim,line,key", [
    (2, "scenario.noise.0 = zero:5", "scenario.noise.0"),
    (2, "scenario.noise.0 = rotation:1,2", "scenario.noise.0"),
    (2, "scenario.drift = rotation:1,2", "scenario.drift"),
    (1, "scenario.noise.0 = gbm:0.3,0.4", "scenario.noise.0"),
    (2, "scenario.K0 = metric:7", "scenario.K0"),
    (2, "scenario.K0 = position_one_form:3", "scenario.K0"),
])
def test_inline_field_specs_refuse_surplus_parameters(tmp_path, monkeypatch, capsys, dim, line,
                                                      key):
    """A field spec given parameters it does not take exits 1 naming its key,
    before anything is written; without the surplus the run goes through."""
    from flowtensor import cli

    monkeypatch.chdir(tmp_path)
    head = f"scenario.name = extra\nscenario.atlas = euclidean:{dim}\nrun.paths = 2\n"
    write_config(tmp_path, f"{head}run.levels = 1\n{line}\n")
    assert cli.run(["--config", "run.cfg"]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert key in err and "takes" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]
    write_config(tmp_path, f"{head}run.levels = 1\n{line.partition(':')[0]}\n")
    assert cli.run(["--config", "run.cfg"]) == cli.EXIT_OK


@pytest.mark.parametrize("args", [["--list"], ["identity", "--out", None]])
def test_closed_stdout_exits_one_quietly(tmp_path, args):
    """A reader that closes stdout at once gets no traceback; the reports are still written."""
    args = [str(tmp_path) if a is None else a for a in args]
    proc = subprocess.Popen(CLI + args, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=cli_env(), cwd=tmp_path)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 1
    assert err == b""
    if "--out" in args:
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "identity.csv", "identity.manifest.json"]


def test_out_of_range_seed_flag_exits_one(tmp_path):
    out = run_cli("kiw_ito_pullback_r2", "--seed", "-1", "--out", str(tmp_path),
                  cwd=tmp_path)
    assert out.returncode == 1
    assert "--seed" in out.stderr
    assert "Traceback" not in out.stderr


@pytest.mark.parametrize("flag,value", [("--paths", "100000000000000000000000"),
                                        ("--levels", "99999999999999999999")])
def test_oversized_study_flag_exits_one(tmp_path, flag, value):
    """A study beyond MAX_STUDY_STATES is refused before it allocates anything."""
    out = run_cli("identity", flag, value, "--out", str(tmp_path), cwd=tmp_path)
    assert out.returncode == 1
    assert f"{flag}: a study of" in out.stderr
    assert "MAX_STUDY_STATES" in out.stderr
    assert "Traceback" not in out.stderr
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("dim", [2, 3])
def test_a_singular_jacobian_reads_nan_in_the_monitor(tmp_path, dim):
    """A drift of ``-x / h`` zeroes every ``J`` at the first step of level 0.
    The metric reads no ``Jinv``, so the monitor inverts ``J`` itself: the
    singular ``J`` reads NaN there, on the closed form (n = 2) and on
    ``np.linalg.inv`` (n = 3) alike, and the run still exits 0."""
    rows = ",".join("-16" if i == j else "0" for i in range(dim) for j in range(dim))
    cfg = write_config(tmp_path, f"scenario.name = sing\nscenario.atlas = euclidean:{dim}\n"
                       f"scenario.drift = linear:{rows}\nscenario.x0 = {','.join(['0.3'] * dim)}\n"
                       "run.paths = 2\nrun.levels = 2\n")
    out = run_cli("--config", str(cfg), "--out", str(tmp_path / "out"), cwd=tmp_path)
    assert out.returncode == 0, out.stderr
    rows = (tmp_path / "out" / "sing.csv").read_text().splitlines()
    assert rows[0].endswith(",jac_consistency_max")
    assert rows[1].endswith(",nan") and not rows[2].endswith(",nan")


def test_missing_config_file_exits_one(tmp_path):
    out = run_cli("--config", str(tmp_path / "absent.cfg"), cwd=tmp_path)
    assert out.returncode == 1


def test_scenario_argument_conflicts_with_inline_config(tmp_path):
    cfg = write_config(
        tmp_path, "scenario.name = x\nscenario.atlas = euclidean:1\n"
    )
    out = run_cli("identity", "--config", str(cfg), "--out", str(tmp_path), cwd=tmp_path)
    assert out.returncode == 1


def test_no_scenario_at_all_exits_one(tmp_path):
    out = run_cli("--out", str(tmp_path), cwd=tmp_path)
    assert out.returncode == 1


# ---------------------------------------------------------------------------
# malformed values, key by key
# ---------------------------------------------------------------------------

_RUN_BASE = {"run.scenario": "identity", "run.paths": "2", "run.levels": "1"}
_INLINE_BASE = {"scenario.name": "x", "scenario.atlas": "euclidean:2", "run.paths": "2",
                "run.levels": "1"}
_LINE = {"scenario.atlas": "euclidean:1"}
_SPHERE = {"scenario.atlas": "sphere2"}
_EMPTY = "empty key or value"
_INT = "expected an integer"
_POSITIVE = "expected a positive integer"
_NUMBER = "expected a number"
_FINITE = "expected a finite number"
_BLOWUP = "more than half the paths blew up"
_TOO_BIG = "more than MAX_STUDY_STATES"

# (key, value, other keys, exit code, message fragment); an empty value is
# the line ``key =``.  A row that exits 0 or 3 is a value the CLI accepts:
# a negative rate or coordinate is legal, and a finite parameter so large
# that the flow overflows blows the paths up.
MALFORMED = [
    ("run.scenario", "", {}, 1, _EMPTY),
    ("run.scenario", "nan", {}, 1, "unknown scenario 'nan'"),
    ("run.scenario", "identity,identity", {}, 1, "unknown scenario"),
    *[("run.seed", v, {}, 1, f"run.seed: {_INT}") for v in
      ("abc", "nan", "inf", "-inf", "1e300", "1.5", "1,2")],
    ("run.seed", "", {}, 1, _EMPTY),
    ("run.seed", "-1", {}, 1, "run.seed: expected an integer in [0, 2**64)"),
    ("run.seed", "18446744073709551616", {}, 1, "run.seed: expected an integer in [0, 2**64)"),
    *[(key, v, {}, 1, f"{key}: {_INT}") for key in ("run.paths", "run.levels", "run.steps")
      for v in ("abc", "nan", "inf", "-inf", "1e300", "1.5", "1,2")],
    *[(key, "", {}, 1, _EMPTY) for key in ("run.paths", "run.levels", "run.steps")],
    *[(key, v, {}, 1, f"{key}: {key[4:]} must be >= 1") for key in
      ("run.paths", "run.levels", "run.steps") for v in ("-1", "0")],
    *[(key, "100000000000000000000000", {}, 1, _TOO_BIG) for key in
      ("run.paths", "run.levels", "run.steps")],
    *[(key, v, {}, 1, f"{key}: expected one of") for key in ("run.scheme", "run.bracket_mode")
      for v in ("nan", "-1", "heun,heun")],
    *[(key, "", {}, 1, _EMPTY) for key in ("run.scheme", "run.bracket_mode", "run.out")],
    ("run.out", "file", {}, 1, "run.out: 'file' is not a directory"),
    ("scenario.name", "", {}, 1, _EMPTY),
    ("scenario.name", "../x", {}, 1, "scenario.name: expected a plain file name"),
    ("scenario.name", "..", {}, 1, "scenario.name: expected a plain file name"),
    ("scenario.theorem", "", {}, 1, _EMPTY),
    ("scenario.theorem", "nan", {}, 1, "unknown selector 'nan'"),
    ("scenario.theorem", "KunitaSecond,KunitaSecond", {}, 1, "unknown selector"),
    ("scenario.atlas", "", {}, 1, _EMPTY),
    ("scenario.atlas", "nan", {}, 1, "scenario.atlas: unknown atlas"),
    ("scenario.atlas", "euclidean", {}, 1, "scenario.atlas: euclidean needs a dimension"),
    *[("scenario.atlas", f"{atlas}:{v}", {}, 1, f"scenario.atlas: {_POSITIVE}")
      for atlas in ("euclidean", "torus")
      for v in ("abc", "nan", "inf", "-inf", "1e300", "-1", "0", "1.5", "2,2")],
    *[("scenario.atlas", f"{atlas}:{v}", {}, 1, f"scenario.atlas: dimension {v} exceeds "
       "MAX_INLINE_DIM = 8") for atlas in ("euclidean", "torus")
      for v in ("9", "24", "100000000000000000000000")],
    ("scenario.atlas", "euclidean:8", {"scenario.x0": ",".join(["0"] * 8)}, 0, ""),
    ("scenario.atlas", "sphere2:1", {}, 1, "scenario.atlas: sphere2 takes no parameter"),
    *[(key, "", {}, 1, _EMPTY) for key in ("scenario.drift", "scenario.noise.0", "scenario.K0",
                                           "scenario.x0", "scenario.horizon",
                                           "scenario.steps", "scenario.scheme")],
    ("scenario.drift", "nan", {}, 1, "scenario.drift: unknown field 'nan'"),
    ("scenario.drift", "zero:5", {}, 1, "scenario.drift: zero takes at most 0"),
    ("scenario.drift", "constant", {}, 1, "scenario.drift: constant needs 2 components"),
    ("scenario.drift", "constant:1", {}, 1, "scenario.drift: constant needs 2 components"),
    ("scenario.drift", "constant:1,2,3", {}, 1, "scenario.drift: constant needs 2 components"),
    ("scenario.drift", "constant:abc,0", {}, 1, f"scenario.drift: {_NUMBER}"),
    *[("scenario.drift", f"constant:{v},0", {}, 1, f"scenario.drift: {_FINITE}")
      for v in ("nan", "inf", "-inf")],
    ("scenario.drift", "constant:1e300,0", {}, 3, _BLOWUP),
    ("scenario.drift", "constant:-1,0", {}, 0, ""),
    ("scenario.drift", "linear:1,0,0", {}, 1, "scenario.drift: linear needs 4 row-major"),
    ("scenario.drift", "linear:1,0,0,0,0", {}, 1, "scenario.drift: linear needs 4 row-major"),
    ("scenario.drift", "linear:abc,0,0,0", {}, 1, f"scenario.drift: {_NUMBER}"),
    *[("scenario.drift", f"linear:{v},0,0,0", {}, 1, f"scenario.drift: {_FINITE}")
      for v in ("nan", "inf", "-inf")],
    ("scenario.drift", "linear:1e300,0,0,1e300", {}, 3, _BLOWUP),
    ("scenario.drift", "linear:-1,0,0,-1", {}, 0, ""),
    ("scenario.drift", "linear:1,0,0,1", _SPHERE, 1, "linear fields need the euclidean atlas"),
    ("scenario.drift", "rotation:abc", {}, 1, f"scenario.drift: {_NUMBER}"),
    *[("scenario.drift", f"rotation:{v}", {}, 1, f"scenario.drift: {_FINITE}")
      for v in ("nan", "inf", "-inf")],
    ("scenario.drift", "rotation:1e300", {}, 3, _BLOWUP),
    ("scenario.drift", "rotation:-1", {}, 0, ""),
    ("scenario.drift", "rotation:1,2", {}, 1, "scenario.drift: rotation takes at most 1"),
    ("scenario.drift", "gbm:1", {}, 1, "scenario.drift: gbm needs the one-dimensional"),
    ("scenario.noise.0", "gbm:abc", _LINE, 1, f"scenario.noise.0: {_NUMBER}"),
    *[("scenario.noise.0", f"gbm:{v}", _LINE, 1, f"scenario.noise.0: {_FINITE}")
      for v in ("nan", "inf", "-inf")],
    ("scenario.noise.0", "gbm:1e300", _LINE, 3, _BLOWUP),
    ("scenario.noise.0", "gbm:-1", _LINE, 0, ""),
    ("scenario.noise.0", "gbm:0.3,0.4", _LINE, 1, "scenario.noise.0: gbm takes at most 1"),
    ("scenario.noise.0", "rotation:1", _LINE, 1, "rotation needs the planar euclidean atlas"),
    ("scenario.noise.0", "sphere_rotation:1,1,1", _LINE, 1, "sphere_rotation needs the sphere2"),
    ("scenario.noise.0", "sphere_rotation:1,2", _SPHERE, 1, "sphere_rotation takes three rates"),
    ("scenario.noise.0", "sphere_rotation:1,2,3,4", _SPHERE, 1,
     "sphere_rotation takes three rates"),
    ("scenario.noise.0", "sphere_rotation:abc,1,1", _SPHERE, 1, f"scenario.noise.0: {_NUMBER}"),
    *[("scenario.noise.0", f"sphere_rotation:{v},1,1", _SPHERE, 1,
       f"scenario.noise.0: {_FINITE}") for v in ("nan", "inf", "-inf")],
    ("scenario.noise.0", "sphere_rotation:1e300,1.1,0.7", _SPHERE, 3, _BLOWUP),
    ("scenario.noise.0", "sphere_rotation:-1,1,1", _SPHERE, 0, ""),
    ("scenario.noise.0", "constant:1,1", _SPHERE, 1, "constant fields are not defined on the"),
    ("scenario.noise.0", "zero:1", _SPHERE, 1, "scenario.noise.0: zero takes at most 0"),
    ("scenario.K0", "nan", {}, 1, "scenario.K0: unknown field 'nan'"),
    ("scenario.K0", "metric:7", {}, 1, "scenario.K0: metric takes no parameters"),
    ("scenario.K0", "position_one_form:3", {}, 1,
     "scenario.K0: position_one_form takes no parameters"),
    *[("scenario.K0", f"one_form:{v}", {}, 1, "scenario.K0: one_form needs an index")
      for v in ("abc", "nan", "inf", "-inf", "1e300", "1.5", "0,1")],
    *[("scenario.K0", f"one_form:{v}", {}, 1, "scenario.K0: one_form index out of range")
      for v in ("-1", "2")],
    ("scenario.K0", "one_form:0", _SPHERE, 1, "one_form is not defined on the sphere charts"),
    ("scenario.K0", "position_one_form", _SPHERE, 1, "position_one_form needs the euclidean"),
    ("scenario.x0", "abc,0", {}, 1, f"scenario.x0: {_NUMBER}"),
    *[("scenario.x0", f"{v},0", atlas, 1, f"scenario.x0: {_FINITE}")
      for v in ("nan", "inf", "-inf") for atlas in ({}, _SPHERE)],
    *[("scenario.x0", "1e300,0", atlas, 1, "scenario.x0: '1e300,0' lies in no chart")
      for atlas in ({}, _SPHERE)],
    *[("scenario.x0", "-1,0", atlas, 0, "") for atlas in ({}, _SPHERE)],
    ("scenario.x0", "1", {}, 1, "scenario.x0: expected 2 coordinates"),
    ("scenario.x0", "1,2,3", {}, 1, "scenario.x0: expected 2 coordinates"),
    *[("scenario.horizon", v, {}, 1, f"scenario.horizon: {_NUMBER}") for v in ("abc", "1,2")],
    *[("scenario.horizon", v, {}, 1, f"scenario.horizon: {_FINITE}")
      for v in ("nan", "inf", "-inf")],
    *[("scenario.horizon", v, {}, 1, "scenario.horizon: expected a positive number")
      for v in ("-1", "0")],
    *[("scenario.steps", v, {}, 1, f"scenario.steps: {_POSITIVE}")
      for v in ("abc", "nan", "inf", "-inf", "1e300", "-1", "0", "1.5", "1,2")],
    ("scenario.steps", "100000000000000000000000", {}, 1, _TOO_BIG),
    *[("scenario.scheme", v, {}, 1, "scenario.scheme: expected one of")
      for v in ("nan", "rk4", "heun,heun")],
]


@pytest.mark.parametrize("key,value,others,code,fragment", MALFORMED,
                         ids=[f"{key}={value}" + "".join(f",{v}" for v in others.values())
                              for key, value, others, _, _ in MALFORMED])
def test_malformed_values_end_with_their_exit_code_and_no_traceback(tmp_path, key, value,
                                                                    others, code, fragment):
    """Every config key and inline field spec, given the malformed values that
    apply to it, ends with its documented exit code and a message that names
    the trouble, never with a traceback or a numpy warning."""
    cfg = dict(_RUN_BASE if key.startswith("run.") else _INLINE_BASE, **others)
    cfg.pop(key, None)
    text = "".join(f"{k} = {v}\n" for k, v in cfg.items()) + f"{key} = {value}\n"
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    (out_dir / "file").write_text("")
    out = run_cli("--config", str(write_config(tmp_path, text)), cwd=out_dir)
    assert out.returncode == code, out.stderr
    assert fragment in out.stderr
    assert "Traceback" not in out.stderr
    assert "Warning" not in out.stderr, out.stderr
