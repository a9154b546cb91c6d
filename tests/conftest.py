"""Shared test plumbing: the acceptance-criteria report and the
hypothesis profile.

Criterion tests in test_acceptance.py record their verdicts here; after
the run a summary section prints one PASS/FAIL line per criterion so the
gate can be read off the terminal without digging through pytest output.
Property tests run derandomized and without deadlines, so a run draws the
same examples every time and a slow, shared host cannot fail them.
"""

import contextlib

try:
    from hypothesis import settings
except ImportError:  # test_properties.py skips itself
    pass
else:
    settings.register_profile("affectsim", derandomize=True, deadline=None, database=None)
    settings.load_profile("affectsim")

ACCEPTANCE_RESULTS = []


class CriterionLog:
    """Mutable slot a criterion test can drop measurement details into."""

    def __init__(self) -> None:
        self.detail = ""


@contextlib.contextmanager
def criterion(number: int, label: str):
    log = CriterionLog()
    try:
        yield log
    except BaseException:
        ACCEPTANCE_RESULTS.append((number, label, False, log.detail))
        raise
    ACCEPTANCE_RESULTS.append((number, label, True, log.detail))


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for number, label, passed, detail in sorted(ACCEPTANCE_RESULTS):
        status = "PASS" if passed else "FAIL"
        suffix = f"  [{detail}]" if detail else ""
        terminalreporter.write_line(f"criterion {number:2d} {label}: {status}{suffix}")
