"""``tools/code_lines.py`` counts the lines that hold code, per module and in total."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "code_lines.py"

MODULE = '''"""Module docstring,
over two lines."""

import os  # a comment after code counts


class Box:
    """Class docstring."""

    # a comment line
    size = (1,
            2)

    def area(self):
        """Function
        docstring."""

        text = """a string
that is no docstring"""
        return os.sep + text
'''


def test_code_lines_counts_a_small_module(tmp_path):
    pkg = tmp_path / "pkg"
    (pkg / "sub").mkdir(parents=True)
    (pkg / "mod.py").write_text(MODULE)
    (pkg / "sub" / "empty.py").write_text("# nothing but a comment\n")
    out = subprocess.run([sys.executable, str(TOOL), str(pkg)], capture_output=True, text=True,
                         timeout=60)
    assert out.returncode == 0, out.stderr
    # import, class, the two lines of size, def, the two lines of text, return
    assert out.stdout.splitlines() == ["     8  mod.py", "     0  sub/empty.py", "     8  total"]


def test_code_lines_runs_on_the_package():
    out = subprocess.run([sys.executable, str(TOOL), str(ROOT / "src" / "flowtensor")],
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    counts = [int(line.split()[0]) for line in lines]
    assert lines[-1].endswith("total") and counts[-1] == sum(counts[:-1]) > 0
    assert any(line.endswith("kiw_verifier.py") for line in lines)
