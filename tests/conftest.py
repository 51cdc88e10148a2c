"""Shared pytest wiring: the acceptance tests record their PASS lines here
so they show up in the terminal summary even under output capture.

Property tests run under one deterministic hypothesis profile: the examples
are derived from each test's name rather than drawn at random, nothing is
read from or written to an example database, and the example count is
bounded so that they cost seconds, not minutes."""

from hypothesis import settings

settings.register_profile(
    "qasr", derandomize=True, database=None, max_examples=10, deadline=None
)
settings.load_profile("qasr")

ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
