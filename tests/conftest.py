"""Shared pytest hooks: collect acceptance scorecard lines for the summary.

Property tests draw the same examples on every run and keep no example
database, so a tolerance that holds once holds on every run.
"""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True, database=None)
settings.load_profile("derandomized")

SCORECARD = []


def pytest_terminal_summary(terminalreporter):
    if SCORECARD:
        terminalreporter.section("acceptance scorecard")
        for line in sorted(SCORECARD):
            terminalreporter.write_line(line)
