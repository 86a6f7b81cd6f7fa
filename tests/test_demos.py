"""Every demo script, and the README's quick start, runs to completion
against the current API."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_exits_zero(demo, tmp_path):
    env = dict(os.environ, TMPDIR=str(tmp_path))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr


def quick_start_block() -> str:
    """The first ``python`` code block of the README's "Quick start" section."""
    text = (ROOT / "README.md").read_text()
    section = text.partition("\n## Quick start\n")[2].partition("\n## ")[0]
    block = re.search(r"^```python\n(.*?)^```", section, re.M | re.S)
    assert block, "README.md has no python block under Quick start"
    return block.group(1)


def test_readme_quick_start_runs():
    """Keeps the README's example in step with the API."""
    exec(compile(quick_start_block(), "README.md quick start", "exec"), {})
