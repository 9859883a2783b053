"""Shared pytest hooks for the suite.

The acceptance tests each print one ``ACCEPTANCE CRITERION n: ...`` verdict
line.  Default output capture hides those lines when a test passes, so this
plugin collects them from captured stdout (and synthesizes a FAIL line when a
criterion test errors before announcing) and replays them in the terminal
summary, where they are visible in any ``pytest`` run without ``-s``.

It also fails any test that runs longer than ``TEST_TIME_LIMIT_S`` (by
``SIGALRM``, where the platform has it), so a loop that never ends fails
the suite instead of hanging it, and it holds the pinned ``selftest``
content digests that several tests read.
"""

from __future__ import annotations

import re
import signal

import pytest

_CRITERION_TAG = "ACCEPTANCE CRITERION"
_CRITERION_TEST = re.compile(r"test_criterion_(\d+)")

_verdict_lines: dict[int, str] = {}

# Generous: the slowest test takes a few seconds on a 2-core host.
TEST_TIME_LIMIT_S = 300


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def time_out(signum, frame):
        raise TimeoutError(f"{item.nodeid} ran longer than {TEST_TIME_LIMIT_S} s")

    previous = signal.signal(signal.SIGALRM, time_out)
    signal.alarm(TEST_TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def pytest_runtest_logreport(report) -> None:
    if report.when != "call":
        return
    match = _CRITERION_TEST.search(report.nodeid)
    if match is None:
        return
    number = int(match.group(1))
    for line in (report.capstdout or "").splitlines():
        if _CRITERION_TAG in line:
            _verdict_lines[number] = line
            break
    else:
        if report.failed:
            _verdict_lines[number] = (
                f"{_CRITERION_TAG} {number}: FAIL — see {report.nodeid}"
            )


def pytest_terminal_summary(terminalreporter) -> None:
    if not _verdict_lines:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(_verdict_lines):
        terminalreporter.write_line(_verdict_lines[number])


@pytest.fixture
def selftest_digests() -> dict[tuple[int, int], str]:
    """The pinned ``selftest`` content digest by (``--samples``, ``--seed``).

    Any change to the report bytes of these configurations shows here; a
    deliberate one is re-pinned in this one place.
    """
    return {
        (100_000, 42): "8e7b72790e55abc688423c0def88bf084fceb593462d23641d0f2256befeed09",
        (2000, 42): "dca742e0f94e0957c55900e159a145e2562c2064d15028a54f93f5fb52363f60",
    }
