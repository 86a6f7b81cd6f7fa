"""``tools/study_peak.py`` prints the traced memory peak of a study per registered scenario.

The tool's ``main`` runs in the test process, as ``tests/test_report_digests.py``
runs its tool, with its stdout captured.
"""

import contextlib
import importlib.util
import io
import sys
from pathlib import Path

import pytest

from flowtensor.scenarios import list_scenarios

TOOL = Path(__file__).resolve().parent.parent / "tools" / "study_peak.py"


def _load_tool():
    """The tool as a module; ``sys.path``, which it extends by ``src``, is restored."""
    spec = importlib.util.spec_from_file_location("study_peak", TOOL)
    tool = importlib.util.module_from_spec(spec)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sys, "path", list(sys.path))
        spec.loader.exec_module(tool)
    return tool


_TOOL = _load_tool()


def _lines(*args):
    """What the tool's ``main(args)`` prints, as ``{name: peak}``; it must return normally."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert _TOOL.main(list(args)) is None
    return dict(map(str.split, out.getvalue().splitlines()))


def test_study_peak_runs_every_scenario():
    """Every registered scenario gets one line, in registry order: a
    positive peak in MiB, or the refusal's name."""
    lines = _lines("--paths", "2", "--levels", "2")
    assert list(lines) == list(list_scenarios())
    assert lines.pop("kiw_push_lowreg") == "HypothesisViolation"
    assert all(float(peak) > 0.0 for peak in lines.values())


def test_study_peak_grows_with_the_paths():
    """The named scenarios alone, in the order given; a study of more
    paths holds more flow states."""
    names = ["kiw_ito_pullback_r2", "identity"]
    small, large = _lines(*names, "--paths", "2"), _lines(*names, "--paths", "16")
    assert list(small) == list(large) == names
    assert all(float(small[nm]) < float(large[nm]) for nm in names)


def test_the_sweep_peak_stands_beside_the_study_peak():
    """With ``--sweep`` a line gains the traced peak of the study's flow
    sweep alone, below the study's own, which holds the drivers beside the
    sweep; a refusal keeps its one field."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert _TOOL.main(["kunita_sphere_rotation", "kiw_push_lowreg", "--paths", "4",
                           "--levels", "2", "--sweep"]) is None
    sphere, refused = (line.split() for line in out.getvalue().splitlines())
    assert refused == ["kiw_push_lowreg", "HypothesisViolation"]
    assert sphere[0] == "kunita_sphere_rotation" and len(sphere) == 3
    assert 0.0 < float(sphere[2]) < float(sphere[1])
