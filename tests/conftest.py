"""Shared test configuration.

Hypothesis runs derandomized, without an example database and with a bounded
number of examples, so the property tests draw the same inputs on every run.
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, deadline=None,
                          max_examples=150, database=None)
settings.load_profile("deterministic")


def pytest_terminal_summary(terminalreporter):
    """Echo the acceptance-criterion verdict lines after capture has ended."""
    try:
        from tests import test_acceptance
    except ImportError:
        import test_acceptance
    if test_acceptance.VERDICTS:
        terminalreporter.section("acceptance criteria")
        for line in test_acceptance.VERDICTS:
            terminalreporter.write_line(line)
