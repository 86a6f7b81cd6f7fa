"""Shared fixtures: the program cache of the run and the acceptance report collector.

The whole run, subprocesses included, keeps its generated programs in a
program cache of its own (``XDG_CACHE_HOME`` under pytest's temporary
directory), which starts empty; tests never read or write the cache of
the user who runs them.  ``empty_program_cache`` gives one test a cache
of its own that starts empty, for tests that count what a cold set-up
derives or prints.

Each acceptance test records a single line through the ``criterion``
fixture; the collected lines are printed as their own section at the end
of the run so the pass/fail status of every numbered check is visible
even when pytest captures stdout.
"""

import pytest

_LINES = {}


@pytest.fixture(scope="session", autouse=True)
def _run_program_cache(tmp_path_factory):
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("xdg_cache")))
        yield


@pytest.fixture
def empty_program_cache(tmp_path, monkeypatch):
    """A program cache that starts empty, in ``XDG_CACHE_HOME``; returns its directory."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg_cache"))
    return tmp_path / "xdg_cache" / "flowtensor"


@pytest.fixture
def criterion():
    def _record(num: int, passed: bool, detail: str):
        status = "PASS" if passed else "FAIL"
        _LINES[num] = f"criterion {num:2d}: {status}  {detail}"
        assert passed, f"criterion {num}: {detail}"

    return _record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _LINES:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(_LINES):
        terminalreporter.write_line(_LINES[num])
