import pathlib

import pytest

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def cardiac_text(horizon: int) -> str:
    """fixtures/cardiac.tdid with its master sequence set to 1..horizon."""
    text = (FIXTURES / "cardiac.tdid").read_text()
    master = "master " + " ".join(str(t) for t in range(1, horizon + 1))
    return text.replace("master 1 2 3", master)


@pytest.fixture
def fixtures_dir() -> pathlib.Path:
    return FIXTURES


def pytest_runtest_logreport(report):
    """Print one visible pass/fail line per acceptance criterion."""
    if report.when != "call" or "test_acceptance.py" not in report.nodeid:
        return
    name = report.nodeid.split("::")[-1]
    if not name.startswith("test_criterion_"):
        return
    number, _, label = name[len("test_criterion_"):].partition("_")
    status = "PASS" if report.passed else "FAIL"
    print(f"\nacceptance criterion {number}: {status} — {label.replace('_', ' ')}")
