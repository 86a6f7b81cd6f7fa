"""Smoke test of the benchmark itself: each workload's code path at a tiny size.

    python3 -m pytest -q perfbench/test_smoke.py

Checks that a run prints every metric that ``BENCHMARK.json`` declares,
by name and with its unit, and that it refuses to report without the
program's sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload, trace, cwd=ROOT, tiny=True):
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
            "--seconds", "1", "--trace", str(trace)] + (["--tiny"] if tiny else [])
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=180)


# every workload runs traced (which also runs each study untraced); the
# end-to-end metric names are the same for every workload
@pytest.mark.parametrize("workload,trace", [
    ("sphere_hops", 0), ("pullback_lie", 1), ("sphere_hops", 1),
])
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    proc = bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == units
    for name, unit in units.items():
        assert any(ln.startswith(f"{workload} {name} = ") and ln.endswith(f" {unit}")
                   for ln in lines), name
    assert any(ln.startswith(f"{workload} failed_frac = 0 fraction") for ln in lines)


def test_without_the_program_sources_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("sphere_hops", 0, cwd=tmp_path, tiny=False)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
