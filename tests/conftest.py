import signal

import pytest

RESULTS = []  # (criterion number, status, description), filled by the acceptance suite
# a test that runs longer fails, so that a hang (a Newton loop that never
# stops, say) names its test instead of holding the whole run; the slowest
# test takes about 7 s
TEST_TIMEOUT_S = 300


def record(number, status, description):
    RESULTS.append((number, status, description))


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    """Run the test under a POSIX alarm of TEST_TIMEOUT_S; without SIGALRM, as is."""
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(signum, frame):
        pytest.fail(f"{item.nodeid} ran past the {TEST_TIMEOUT_S} s limit")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TEST_TIMEOUT_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def pytest_terminal_summary(terminalreporter):
    if not RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for number, status, description in sorted(RESULTS):
        terminalreporter.write_line(f"criterion {number:2d}: {status:4s} - {description}")
