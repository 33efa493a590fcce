import pytest


@pytest.fixture(scope="session", autouse=True)
def _fresh_results_file():
    """Keep ``benchmarks/results.txt``: the paper benches own it, not the harness.

    Overrides the fixture of the same name in ``benchmarks/conftest.py``,
    which deletes that file at the start of every session.
    """
    yield
