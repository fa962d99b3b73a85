"""Print the acceptance verdicts in the terminal summary.

Each acceptance test records its ``[criterion N] ...: PASS/FAIL`` line as a
``criterion`` user property; printing it here reaches the terminal whether or
not output capture is on.
"""


def pytest_terminal_summary(terminalreporter):
    lines = sorted(
        value
        for reports in terminalreporter.stats.values()
        for report in reports
        if getattr(report, "when", None) == "call"
        for name, value in getattr(report, "user_properties", ())
        if name == "criterion"
    )
    if lines:
        terminalreporter.section("acceptance criteria")
        for _, line in lines:
            terminalreporter.write_line(line)
